// Package testbed assembles the full simulated smart home: the Table I
// device fleet on a netsim network behind a NAT gateway, the service-layer
// cloud with its automations, DNS, the OTA pipeline, and attacker
// footholds. Examples, experiments, the attack suite and the XLF facade
// all build on this one wiring.
package testbed

import (
	"fmt"
	"time"

	"xlf/internal/attack"
	"xlf/internal/channel"
	"xlf/internal/device"
	"xlf/internal/lwc"
	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/service"
	"xlf/internal/sim"
)

// Config selects testbed variants.
type Config struct {
	Seed int64
	// Flaws enables the vulnerable platform configuration (the "before
	// XLF" world).
	Flaws service.Flaws
	// ResolverMode is "DNS" (cleartext) or "DoT".
	ResolverMode string
	// KeepaliveEvery sets device cloud chatter cadence (0 = 20s).
	KeepaliveEvery time.Duration
	// SignedOTASeed seeds the vendor OTA key (32 bytes used).
	SignedOTASeed byte
	// LightweightEncryption establishes an XLF channel session per device
	// (the §IV-A2 function): keepalive and event payloads are sealed with
	// the device's negotiated Table III cipher and battery-metered.
	LightweightEncryption bool
	// Tracer, when set, is bound to the simulation clock and installed on
	// the kernel, the network, and the device-layer traffic sources, so a
	// packet's journey is reconstructable per layer. Nil disables tracing.
	Tracer *obs.Tracer
}

// Home is the assembled testbed.
type Home struct {
	Kernel   *sim.Kernel
	Net      *netsim.Network
	Gateway  *netsim.Gateway
	Resolver *netsim.Resolver
	DNS      *netsim.DNSServer
	Cloud    *service.Cloud
	OTA      *service.OTAPipeline
	Devices  map[string]*device.Device

	// LANCap and WANCap record traffic at the two tap points.
	LANCap *netsim.Capture
	WANCap *netsim.Capture

	// CloudAddrOf maps vendor domain -> WAN address.
	CloudAddrOf map[string]netsim.Addr

	// Sessions holds per-device lightweight-encryption sessions
	// (device side) when Config.LightweightEncryption is set; devices
	// whose hardware affords no cipher are absent.
	Sessions map[string]*channel.Session
	// GatewaySessions are the core-side peers of Sessions.
	GatewaySessions map[string]*channel.Session

	// Detections, when set, is handed to AttackEnv so attacks timestamp
	// their injections for the detection-latency SLO pipeline.
	Detections *obs.DetectionTracker

	// nodes holds each device's network presence by device ID.
	nodes map[string]*deviceNode

	tracer *obs.Tracer
}

// New builds the standard home with the full device catalog. Homes
// are per-run testbed state owned by the testbed domain
// (DESIGN.md §14).
//
//xlf:owned(testbed)
func New(cfg Config) (*Home, error) {
	if cfg.ResolverMode == "" {
		cfg.ResolverMode = "DNS"
	}
	if cfg.KeepaliveEvery <= 0 {
		cfg.KeepaliveEvery = 20 * time.Second
	}

	catalog := device.Catalog()
	k := sim.NewKernel(cfg.Seed)
	n := netsim.New(k)
	if cfg.Tracer != nil {
		cfg.Tracer.SetClock(k.Now)
		k.SetTracer(cfg.Tracer)
		n.SetTracer(cfg.Tracer)
	}
	h := &Home{
		Kernel:          k,
		Net:             n,
		Gateway:         netsim.NewGateway("lan:gw", "wan:home"),
		Devices:         make(map[string]*device.Device, len(catalog)),
		LANCap:          netsim.NewCapture(),
		WANCap:          netsim.NewCapture(),
		CloudAddrOf:     make(map[string]netsim.Addr),
		Sessions:        make(map[string]*channel.Session),
		GatewaySessions: make(map[string]*channel.Session),
		nodes:           make(map[string]*deviceNode, len(catalog)),
		tracer:          cfg.Tracer,
	}
	h.Cloud = service.NewCloud(cfg.Flaws, k.Now)

	seed := make([]byte, 32)
	for i := range seed {
		seed[i] = cfg.SignedOTASeed + byte(i)
	}
	ota, err := service.NewOTAPipeline(h.Cloud, seed)
	if err != nil {
		return nil, err
	}
	h.OTA = ota

	if err := n.Attach(h.Gateway, netsim.DefaultLAN()); err != nil {
		return nil, err
	}
	if err := n.Attach(h.Gateway.WANNode(), netsim.DefaultWAN()); err != nil {
		return nil, err
	}
	n.AddTap(netsim.TapLAN, h.LANCap.Tap())
	n.AddTap(netsim.TapWAN, h.WANCap.Tap())

	// Devices + their vendor cloud endpoints + DNS records.
	var records []netsim.DNSRecord
	for _, d := range catalog {
		for _, dom := range d.CloudDomains {
			if _, ok := h.CloudAddrOf[dom]; ok {
				continue
			}
			addr := netsim.Addr("wan:" + dom)
			h.CloudAddrOf[dom] = addr
			records = append(records, netsim.DNSRecord{Name: dom, Addr: addr, TTL: 5 * time.Minute})
			if err := n.Attach(&netsim.FuncNode{Address: addr}, netsim.DefaultWAN()); err != nil {
				return nil, err
			}
		}
		if err := h.addDevice(d, cfg); err != nil {
			return nil, err
		}
	}

	h.DNS = netsim.NewDNSServer("wan:dns", records)
	if err := n.Attach(h.DNS, netsim.DefaultWAN()); err != nil {
		return nil, err
	}
	h.Resolver = netsim.NewResolver("lan:resolver", "wan:dns", cfg.ResolverMode)
	if err := n.Attach(h.Resolver, netsim.DefaultLAN()); err != nil {
		return nil, err
	}

	// Attacker footholds.
	if err := n.Attach(&netsim.FuncNode{Address: "wan:attacker"}, netsim.DefaultWAN()); err != nil {
		return nil, err
	}
	if err := n.Attach(&netsim.FuncNode{Address: "lan:attacker"}, netsim.DefaultLAN()); err != nil {
		return nil, err
	}
	if err := n.Attach(&netsim.FuncNode{Address: "wan:cnc"}, netsim.DefaultWAN()); err != nil {
		return nil, err
	}
	if err := n.Attach(&netsim.FuncNode{Address: "wan:victim"}, netsim.DefaultWAN()); err != nil {
		return nil, err
	}
	return h, nil
}

// commandCaps maps each device command to the capability it requires. All
// device handlers share it, and nothing writes to it.
var commandCaps = map[string]string{
	"on": "switch", "off": "switch", "dim": "level",
	"open": "lock", "close": "lock", "unlock": "lock", "lock": "lock",
	"heat": "thermostat", "cool": "thermostat",
	"record": "camera", "disable": "camera", "enable": "camera",
	"brew": "brew", "preheat": "oven",
}

// deviceNode is a catalog device's presence on the network: its LAN node,
// and the one packet its keepalives and user events are built in. Reusing
// that packet is sound because Gateway.SendOut's hooks read it only
// during the call and the network sends its own copy.
type deviceNode struct {
	h      *Home
	d      *device.Device
	lan    netsim.Addr
	cloud  netsim.Addr // the first vendor cloud; "" if the device has none
	uplink netsim.Packet
}

// Addr implements netsim.Node.
func (dn *deviceNode) Addr() netsim.Addr { return dn.lan }

// Handle implements netsim.Node. Devices accept legitimate commands
// delivered by the cloud path ("cmd:<name>"); everything else is attack
// traffic acting on the device model directly.
func (dn *deviceNode) Handle(_ *netsim.Network, pkt *netsim.Packet) {
	if len(pkt.App) > 4 && pkt.App[:4] == "cmd:" {
		name := pkt.App[4:]
		if err := dn.d.Apply(name); err == nil {
			// State change acknowledged to the cloud as an event.
			dn.h.Cloud.PublishDeviceEvent(dn.d.ID, name, 0)
		}
	}
}

// addDevice attaches a catalog device to the network and registers it with
// the cloud.
func (h *Home) addDevice(d *device.Device, cfg Config) error {
	h.Devices[d.ID] = d
	dn := &deviceNode{h: h, d: d, lan: netsim.Addr("lan:" + d.ID)}
	if len(d.CloudDomains) > 0 {
		dn.cloud = h.CloudAddrOf[d.CloudDomains[0]]
	}
	h.nodes[d.ID] = dn

	link := netsim.DefaultLAN()
	if d.Profile.Kind == "sensor" {
		link = netsim.DefaultZigbee()
	}
	if err := h.Net.Attach(dn, link); err != nil {
		return err
	}

	// Cloud handler: delivering a command sends a packet down to the
	// device and applies it on arrival.
	handler := &service.DeviceHandler{
		ID:           d.ID,
		Caps:         d.Caps,
		CapOfCommand: commandCaps,
		Deliver: func(cmd service.Command) error {
			h.Net.Send(&netsim.Packet{
				Src: "lan:gw", Dst: dn.lan, SrcPort: 443, DstPort: 8443,
				Proto: "TLS", Encrypted: true, Size: 160,
				App: "cmd:" + cmd.Name,
			})
			return nil
		},
	}
	if err := h.Cloud.RegisterDevice(handler); err != nil {
		return err
	}

	// OTA flash path: verified images update the device model.
	// (Installed once; closure captures the map lookup per call.)
	if h.OTA.Flash == nil {
		h.OTA.Flash = func(deviceID string, img service.OTAImage) error {
			t, ok := h.Devices[deviceID]
			if !ok {
				return fmt.Errorf("testbed: flash target %q missing", deviceID)
			}
			t.Firmware = device.Firmware{
				Version: img.Version, Hash: img.Fingerprint,
				Signed: len(img.Signature) > 0, BuildData: img.Data,
				Tampered: len(img.Signature) == 0,
			}
			return nil
		}
	}

	// Lightweight-encryption session (§IV-A2): the device seals its
	// payloads with the negotiated cipher; the gateway holds the peer.
	if cfg.LightweightEncryption {
		reg := lwc.NewRegistry()
		key := []byte("xlf-pairing-" + d.ID)
		if devSess, err := channel.ForDevice(d, reg, key); err == nil {
			h.Sessions[d.ID] = devSess
			// The gateway derives the identical session from the same
			// pairing key and the device's profile (unmetered).
			if gwSess, gerr := channel.ForProfile(d.Profile, reg, key); gerr == nil {
				h.GatewaySessions[d.ID] = gwSess
			}
		}
	}

	// Periodic cloud keepalive: the vendor chatter every real device
	// produces, and what the E2 adversary fingerprints.
	if dn.cloud != "" {
		h.Kernel.Every(cfg.KeepaliveEvery, cfg.KeepaliveEvery/4, d.ID+"-keepalive", dn.keepalive)
	}
	return nil
}

// keepalive sends one keepalive to the device's vendor cloud.
func (dn *deviceNode) keepalive() {
	h, d := dn.h, dn.d
	pkt := &dn.uplink
	*pkt = netsim.Packet{
		Src: dn.lan, SrcPort: 7443,
		Dst: dn.cloud, DstPort: 443,
		Proto: "TLS", Encrypted: true, Size: 180 + len(d.ID)*3,
		App: "keepalive",
	}
	cause := "cleartext"
	if sess, ok := h.Sessions[d.ID]; ok {
		// Payload bytes originate in the device layer and must be
		// sealed before crossing the network layer (the xlf-vet
		// plaintextescape invariant).
		sealed, err := sess.Seal(d.KeepalivePayload())
		if err != nil {
			// Battery exhausted: the device goes dark.
			if h.tracer != nil {
				h.tracer.EmitAt(h.Kernel.Now(), obs.LayerDevice, "keepalive", d.ID, "battery-exhausted")
			}
			return
		}
		pkt.Payload = sealed
		pkt.Proto = "XLF-LWC"
		cause = "sealed"
	}
	if h.tracer != nil {
		h.tracer.EmitAt(h.Kernel.Now(), obs.LayerDevice, "keepalive", d.ID, cause)
	}
	h.Gateway.SendOut(h.Net, pkt)
}

// UserEvent applies a local user interaction (physically pressing the
// device), publishing the resulting event to the cloud.
func (h *Home) UserEvent(deviceID, event string) error {
	d, ok := h.Devices[deviceID]
	if !ok {
		return fmt.Errorf("testbed: unknown device %q", deviceID)
	}
	if err := d.Apply(event); err != nil {
		return err
	}
	if h.tracer != nil {
		h.tracer.EmitAt(h.Kernel.Now(), obs.LayerDevice, "user-event", deviceID, event)
	}
	// Event traffic to the vendor cloud (burst larger than keepalive).
	if dn := h.nodes[deviceID]; dn.cloud != "" {
		pkt := &dn.uplink
		*pkt = netsim.Packet{
			Src: dn.lan, SrcPort: 7443,
			Dst: dn.cloud, DstPort: 443,
			Proto: "TLS", Encrypted: true, Size: 900,
			App: "event:" + event,
		}
		if sess, ok := h.Sessions[deviceID]; ok {
			// Same plaintextescape contract as the keepalive path: event
			// payloads cross the network layer only sealed.
			if sealed, err := sess.Seal(d.EventPayload(event)); err == nil {
				pkt.Payload = sealed
				pkt.Proto = "XLF-LWC"
			}
		}
		h.Gateway.SendOut(h.Net, pkt)
	}
	return h.Cloud.PublishDeviceEvent(deviceID, event, 0)
}

// AttackEnv exposes the testbed to the attack package.
func (h *Home) AttackEnv() *attack.Env {
	return &attack.Env{
		Kernel:      h.Kernel,
		Net:         h.Net,
		Gateway:     h.Gateway,
		Devices:     h.Devices,
		Cloud:       h.Cloud,
		OTA:         h.OTA,
		AttackerWAN: "wan:attacker",
		AttackerLAN: "lan:attacker",
		Detections:  h.Detections,
	}
}

// Run advances the simulation to the given horizon.
func (h *Home) Run(until time.Duration) error {
	return h.Kernel.Run(until)
}

// InstallClimateAutomation installs the paper's §IV-C3 automation: open
// the window when temperature exceeds 80F.
func (h *Home) InstallClimateAutomation() error {
	above := 80.0
	return h.Cloud.InstallApp(&service.SmartApp{
		ID: "climate-window",
		Rules: []service.Rule{{
			TriggerDevice: "thermo-1", TriggerEvent: "temperature", TriggerAbove: &above,
			ActionDevice: "window-1", ActionCommand: "open",
		}},
		Grants: []service.Grant{
			{DeviceID: "thermo-1", Capability: "temperature"},
			{DeviceID: "window-1", Capability: "lock"},
		},
	})
}
