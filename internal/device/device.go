package device

import (
	"fmt"
	"sort"

	"xlf/internal/lwc"
)

// Firmware models the resident software image of a device: the attack
// surface of §III-A (outdated versions, unsigned images, downgrade).
type Firmware struct {
	Version   string
	Hash      uint64 // lightweight fingerprint (DM-PRESENT of the image)
	Signed    bool
	Tampered  bool // set by a successful firmware-modulation attack
	BuildData []byte
}

// NewFirmware fingerprints an image with the lightweight hash.
func NewFirmware(version string, image []byte, signed bool) Firmware {
	return Firmware{Version: version, Hash: lwc.Sum64(image), Signed: signed, BuildData: append([]byte(nil), image...)}
}

// Verify recomputes the fingerprint; a mismatch means the image was
// modified after signing.
func (f Firmware) Verify() bool {
	return !f.Tampered && f.Hash == lwc.Sum64(f.BuildData)
}

// Credentials is the device's administration login. Default credentials
// are Table II's "static password" and the Mirai recruitment vector.
type Credentials struct {
	User     string
	Password string
	// Default marks factory credentials never changed by the user.
	Default bool
}

// WeakPasswords is the classic default-credential dictionary used by
// Mirai-style scanners; kept here so both attacks and defenses reference
// the same ground truth.
var WeakPasswords = []Credentials{
	{User: "admin", Password: "admin", Default: true},
	{User: "root", Password: "root", Default: true},
	{User: "admin", Password: "1234", Default: true},
	{User: "root", Password: "12345", Default: true},
	{User: "admin", Password: "password", Default: true},
	{User: "user", Password: "user", Default: true},
	{User: "root", Password: "xc3511", Default: true},
	{User: "root", Password: "vizxv", Default: true},
}

// Port is an open network service on the device.
type Port struct {
	Number    int
	Service   string // "telnet", "http", "upnp", "rtsp", ...
	Cleartext bool
}

// State is a node in the device's ground-truth behaviour automaton.
type State string

// Transition is one edge of the behaviour automaton, labelled with the
// command/event that triggers it.
type Transition struct {
	From  State
	Event string
	To    State
}

// Behavior is the deterministic finite automaton of normal device
// operation (§IV-B3: "the state transitions are dictated by the automation
// programs ... a DFA could be used to reflect normal device behaviors").
type Behavior struct {
	Initial State
	edges   map[edge]State
}

// edge is one DFA transition's source: a state and an event.
type edge struct {
	from  State
	event string
}

// NewBehavior builds a DFA from transitions. Duplicate (state, event)
// pairs are rejected — the automaton must be deterministic.
func NewBehavior(initial State, transitions []Transition) (*Behavior, error) {
	b := &Behavior{Initial: initial, edges: make(map[edge]State, len(transitions))}
	for _, tr := range transitions {
		e := edge{tr.From, tr.Event}
		if prev, dup := b.edges[e]; dup && prev != tr.To {
			return nil, fmt.Errorf("device: nondeterministic transition %s --%s--> {%s,%s}", tr.From, tr.Event, prev, tr.To)
		}
		b.edges[e] = tr.To
	}
	return b, nil
}

// Next returns the successor state for an event, or ok=false if the event
// is not legal in the given state.
func (b *Behavior) Next(s State, event string) (State, bool) {
	to, ok := b.edges[edge{s, event}]
	return to, ok
}

// Events returns the sorted event alphabet of the automaton.
func (b *Behavior) Events() []string {
	set := make(map[string]struct{})
	for e := range b.edges {
		set[e.event] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// States returns the sorted state set.
func (b *Behavior) States() []State {
	set := map[State]struct{}{b.Initial: {}}
	for e, to := range b.edges {
		set[e.from] = struct{}{}
		set[to] = struct{}{}
	}
	out := make([]State, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Device is a runtime IoT device instance in the testbed.
type Device struct {
	ID      string
	Profile Profile
	// Caps are the service-layer capability names the device exposes
	// ("switch", "lock", "thermostat", "camera", "motion", ...).
	Caps []string

	Firmware Firmware
	Creds    Credentials
	Ports    []Port
	Behavior *Behavior

	// CloudDomains are the vendor endpoints the device talks to; DNS
	// queries for these identify the device type to a passive observer
	// (Apthorpe et al., used by the E2 experiment).
	CloudDomains []string

	// TypicalTraces holds benign event sequences for devices WITHOUT an
	// automation-derived Behavior (the paper's Amazon Echo point,
	// §IV-B3): XLF learns a transition model from these instead.
	TypicalTraces [][]string

	state State
	// Compromised is set when an attack succeeds against this device.
	Compromised bool
	// Malware names the payload running post-compromise ("mirai", ...).
	Malware string
	// BatteryUJ is remaining battery energy in microjoules (battery
	// devices only; drained by the crypto cost model).
	BatteryUJ float64

	history []string
}

// Option configures a Device at construction.
type Option func(*Device)

// WithCaps sets the device's capability names.
func WithCaps(caps ...string) Option {
	return func(d *Device) { d.Caps = append([]string(nil), caps...) }
}

// WithCreds sets the administration credentials.
func WithCreds(c Credentials) Option {
	return func(d *Device) { d.Creds = c }
}

// WithPorts sets the open service ports.
func WithPorts(ports ...Port) Option {
	return func(d *Device) { d.Ports = append([]Port(nil), ports...) }
}

// WithFirmware sets the firmware image.
func WithFirmware(f Firmware) Option {
	return func(d *Device) { d.Firmware = f }
}

// WithBehavior installs the ground-truth behaviour automaton and resets
// the device to its initial state.
func WithBehavior(b *Behavior) Option {
	return func(d *Device) {
		d.Behavior = b
		d.state = b.Initial
	}
}

// WithCloudDomains sets the vendor endpoints.
func WithCloudDomains(domains ...string) Option {
	return func(d *Device) { d.CloudDomains = append([]string(nil), domains...) }
}

// WithTypicalTraces provides benign event sequences for DFA-less devices.
func WithTypicalTraces(traces ...[]string) Option {
	return func(d *Device) {
		for _, tr := range traces {
			d.TypicalTraces = append(d.TypicalTraces, append([]string(nil), tr...))
		}
	}
}

// New builds a device on a Table I profile. Battery devices start with a
// canonical 2000 mAh @ 3V charge.
func New(id string, p Profile, opts ...Option) *Device {
	d := &Device{ID: id, Profile: p, state: "idle"}
	if p.Power == PowerBattery {
		d.BatteryUJ = 2.0 * 3600 * 3 * 1e6 // 2 Ah * 3 V in microjoules
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// State returns the device's current behaviour state.
func (d *Device) State() State { return d.state }

// History returns the accepted event sequence (a copy).
func (d *Device) History() []string {
	return append([]string(nil), d.history...)
}

// Apply feeds an event/command into the behaviour automaton. Events that
// are illegal in the current state are rejected — exactly the deviations
// XLF's behaviour profiling looks for.
func (d *Device) Apply(event string) error {
	if d.Behavior == nil {
		d.history = append(d.history, event)
		return nil
	}
	next, ok := d.Behavior.Next(d.state, event)
	if !ok {
		return fmt.Errorf("device %s: event %q illegal in state %q", d.ID, event, d.state)
	}
	d.state = next
	d.history = append(d.history, event)
	return nil
}

// ForceState sets the state directly; used by attack implementations that
// bypass the legitimate command path.
func (d *Device) ForceState(s State) { d.state = s }

// Login attempts an administrative login; success with factory-default
// credentials is what Mirai-style recruitment exploits.
func (d *Device) Login(user, password string) bool {
	return d.Creds.User == user && d.Creds.Password == password
}

// HasOpenPort reports whether a service is reachable.
func (d *Device) HasOpenPort(service string) bool {
	for _, p := range d.Ports {
		if p.Service == service {
			return true
		}
	}
	return false
}

// Compromise marks the device as attacker-controlled with a payload name.
func (d *Device) Compromise(malware string) {
	d.Compromised = true
	d.Malware = malware
}

// Disinfect restores the device after remediation (e.g., XLF containment
// plus a verified re-flash).
func (d *Device) Disinfect() {
	d.Compromised = false
	d.Malware = ""
}

// SpendCrypto charges the battery for processing n bytes with the given
// cipher cost and reports whether the device could afford it (RAM fit and
// remaining charge).
func (d *Device) SpendCrypto(cost CipherCost, n int) bool {
	if !cost.Fits {
		return false
	}
	if d.Profile.Power != PowerBattery {
		return true
	}
	uj := cost.MicroJoulePerKB * float64(n) / 1024
	if uj > d.BatteryUJ {
		return false
	}
	d.BatteryUJ -= uj
	return true
}

// AffordableCiphers returns the Table III algorithms whose working RAM
// fits this device, cheapest first — how XLF's device layer picks its
// encryption primitive (§IV-A2).
func AffordableCiphers(p Profile, reg *lwc.Registry) []lwc.Info {
	var out []lwc.Info
	for _, info := range reg.ByCost() {
		if CostModel(p, info.CyclesPerByte, info.RAMBytes).Fits {
			out = append(out, info)
		}
	}
	return out
}
