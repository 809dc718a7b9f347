// Package core implements the XLF Core (§IV-D): the hub that connects the
// device, network and service layers. It ingests per-layer signals,
// correlates them per entity inside a sliding window (multi-layer
// corroboration raises confidence — the paper's central claim), raises
// alerts with full provenance, and drives containment (NAC blocks, app
// removal, device quarantine) and the correlation-driven authentication
// token lifetime policy.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"xlf/internal/obs"
)

// LayerName identifies the producing layer of a signal.
type LayerName string

// XLF layers.
const (
	Device  LayerName = "device"
	Network LayerName = "network"
	Service LayerName = "service"
)

// Signal is one observation handed to the Core by a layer function.
type Signal struct {
	Time     time.Duration
	Layer    LayerName
	Source   string // detector/function name ("ids:scan", "behavior:dfa", ...)
	DeviceID string // affected entity; "" when unattributed
	Kind     string // normalized kind ("scan", "illegal-transition", ...)
	Score    float64
	Detail   string
}

// Severity grades alerts.
type Severity int

// Alert severities.
const (
	SevInfo Severity = iota + 1
	SevWarning
	SevCritical
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Alert is a correlated detection with provenance.
type Alert struct {
	Time       time.Duration
	DeviceID   string
	Severity   Severity
	Confidence float64
	// Layers lists the distinct layers contributing evidence.
	Layers []LayerName
	// Evidence carries the correlated signals.
	Evidence []Signal
	// Action records the containment the Core took ("", "blocked",
	// "quarantined", "app-removed").
	Action string
}

func (a Alert) String() string {
	ls := make([]string, len(a.Layers))
	for i, l := range a.Layers {
		ls[i] = string(l)
	}
	return fmt.Sprintf("[%s] %s conf=%.2f sev=%s layers=%s action=%q (%d signals)",
		a.Time, a.DeviceID, a.Confidence, a.Severity, strings.Join(ls, "+"), a.Action, len(a.Evidence))
}

// Containment is the set of enforcement hooks the Core can pull. Each hook
// is optional; the testbed installs the real ones.
type Containment struct {
	// BlockDevice cuts a device's WAN access (gateway NAC).
	BlockDevice func(deviceID string)
	// QuarantineDevice isolates a device entirely.
	QuarantineDevice func(deviceID string)
	// RemoveApp uninstalls a service-layer application.
	RemoveApp func(appID string)
	// RevokeTokens evicts cached auth tokens tied to a device's users.
	RevokeTokens func(deviceID string)
}

// Config tunes the correlation engine.
type Config struct {
	// Window is the correlation window (signals older than Window before
	// the newest signal for an entity are not corroborating evidence).
	Window time.Duration
	// AlertThreshold is the minimum confidence to raise an alert.
	AlertThreshold float64
	// ContainThreshold is the minimum confidence to act.
	ContainThreshold float64
	// LayerBonus is the confidence multiplier per extra corroborating
	// layer (the cross-layer dividend; ablated in E1).
	LayerBonus float64
	// EnabledLayers restricts which layers' signals are considered; empty
	// means all. Used by the single-layer ablations.
	EnabledLayers []LayerName
	// Cooldown suppresses duplicate alerts per device.
	Cooldown time.Duration
	// Deployment records where this Core instance runs ("gateway" or
	// "cloud"); informational, surfaced in Figure 4.
	Deployment string
}

// DefaultConfig returns the standard gateway deployment tuning.
func DefaultConfig() Config {
	return Config{
		Window:           2 * time.Minute,
		AlertThreshold:   0.6,
		ContainThreshold: 0.85,
		LayerBonus:       0.25,
		Cooldown:         time.Minute,
		Deployment:       "gateway",
	}
}

// Core is the cross-layer correlation engine.
type Core struct {
	cfg     Config
	contain Containment

	windows map[string]*window // per device
	alerts  []Alert

	// OnAlert, when set, observes every raised alert.
	OnAlert func(Alert)

	// Tracer, when set, receives core-layer spans for every ingest,
	// alert and containment decision. Nil (the default) disables tracing
	// at the cost of one branch per hot-path operation.
	Tracer *obs.Tracer

	// Detections, when set, is notified of every raised alert so
	// injected attacks can be matched to their first detection (the
	// telemetry pipeline's latency SLO). Nil disables at one branch.
	Detections *obs.DetectionTracker

	// Recorder, when set, receives an alert trigger for every raised
	// alert, arming the anomaly flight recorder's next flush. Nil
	// disables at one branch.
	Recorder *obs.FlightRecorder

	reg        *obs.Registry
	cIngested  *obs.Counter
	cDropped   *obs.Counter
	cAlerts    *obs.Counter
	cContained *obs.Counter
}

// New creates a Core.
func New(cfg Config, contain Containment) *Core {
	if cfg.Window <= 0 {
		cfg.Window = DefaultConfig().Window
	}
	if cfg.AlertThreshold <= 0 {
		cfg.AlertThreshold = DefaultConfig().AlertThreshold
	}
	if cfg.ContainThreshold <= 0 {
		cfg.ContainThreshold = DefaultConfig().ContainThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultConfig().Cooldown
	}
	reg := obs.NewRegistry()
	return &Core{
		cfg:        cfg,
		contain:    contain,
		windows:    make(map[string]*window),
		reg:        reg,
		cIngested:  reg.Counter("core.ingested"),
		cDropped:   reg.Counter("core.dropped"),
		cAlerts:    reg.Counter("core.alerts"),
		cContained: reg.Counter("core.contained"),
	}
}

// Config returns the active configuration.
func (c *Core) Config() Config { return c.cfg }

// CoreStats is a snapshot of the Core's lifetime counters, read from the
// obs metrics registry backing them.
type CoreStats struct {
	// Ingested counts signals accepted into the correlation window.
	Ingested uint64
	// Dropped counts signals filtered out by the layer ablation.
	Dropped uint64
	// Alerts counts alerts raised.
	Alerts uint64
	// Contained counts alerts that executed a containment action.
	Contained uint64
}

// Stats returns the Core's lifetime counters.
func (c *Core) Stats() CoreStats {
	return CoreStats{
		Ingested:  c.cIngested.Value(),
		Dropped:   c.cDropped.Value(),
		Alerts:    c.cAlerts.Value(),
		Contained: c.cContained.Value(),
	}
}

// Metrics exposes the runtime metrics registry backing the Core's
// counters, for snapshotting alongside trace exports.
func (c *Core) Metrics() *obs.Registry { return c.reg }

// layerEnabled applies the ablation filter.
func (c *Core) layerEnabled(l LayerName) bool {
	if len(c.cfg.EnabledLayers) == 0 {
		return true
	}
	for _, e := range c.cfg.EnabledLayers {
		if e == l {
			return true
		}
	}
	return false
}

// Ingest feeds one signal into the correlation engine and returns the
// alert it raised, if any, as a pointer to the caller's own copy: changing
// it does not change Alerts(). The returned copy shares its Layers and
// Evidence slices with the recorded alert.
//
// This is the per-signal hot path. The device's window is kept
// incrementally (see window), so an ingest costs O(1) amortised time and,
// once the device's ring has stopped growing, does not allocate. Three
// lines are reviewed exceptions to the allocation-free contract: the
// window a device gets on its first signal, the ring and layer-count
// growth (doubling up to maxHist), and the call into raise, which copies
// the window but runs only for an alert, and alerts are cooldown-limited.
//
//xlf:hotpath
func (c *Core) Ingest(sig Signal) *Alert {
	if !c.layerEnabled(sig.Layer) {
		c.cDropped.Inc()
		if c.Tracer != nil {
			c.Tracer.EmitSpan(obs.Span{
				Time: sig.Time, Layer: obs.LayerCore, Op: "filter",
				Device: sig.DeviceID, Cause: sig.Kind, Detail: sig.Source,
			})
		}
		return nil
	}
	c.cIngested.Inc()
	if c.Tracer != nil {
		c.Tracer.EmitSpan(obs.Span{
			Time: sig.Time, Layer: obs.LayerCore, Op: "ingest",
			Device: sig.DeviceID, Cause: sig.Kind, Detail: sig.Source,
		})
	}
	if sig.DeviceID == "" {
		// Unattributed signals are counted but corroborate nothing.
		return nil
	}
	w := c.windows[sig.DeviceID]
	if w == nil {
		w = &window{} //xlf:allow-hotpath one window per device, allocated on its first signal
		c.windows[sig.DeviceID] = w
	}
	now := sig.Time
	if !w.admit(now, now-c.cfg.Window) {
		return nil
	}
	w.push(&sig) //xlf:allow-hotpath ring and layer-count growth double up to maxHist: amortised O(1), bounded

	conf := w.maxScore() * (1 + c.cfg.LayerBonus*float64(len(w.layers)-1))
	if conf > 1 {
		conf = 1
	}
	if conf < c.cfg.AlertThreshold {
		return nil
	}
	// Cooldown suppresses repeats — but never the first escalation to
	// containment level on a device whose prior alerts stayed below it.
	escalation := conf >= c.cfg.ContainThreshold && !w.contained
	if w.alerted && now-w.lastAlert < c.cfg.Cooldown && !escalation {
		return nil
	}
	w.alerted, w.lastAlert = true, now
	return c.raise(sig.DeviceID, w, now, conf) //xlf:allow-hotpath alerts are cooldown-limited; the window copy is off the steady-state path
}

// raise records an alert on a device's live window and takes the
// containment it warrants. It is the only code that reads the window as a
// whole: the alert's Evidence is a copy of it in arrival order.
func (c *Core) raise(deviceID string, w *window, now time.Duration, conf float64) *Alert {
	layers := make([]LayerName, len(w.layers))
	for i, lc := range w.layers {
		layers[i] = lc.layer
	}
	slices.Sort(layers)

	sev := SevWarning
	if conf >= c.cfg.ContainThreshold {
		sev = SevCritical
	}
	a := Alert{
		Time:       now,
		DeviceID:   deviceID,
		Severity:   sev,
		Confidence: conf,
		Layers:     layers,
		Evidence:   w.signals(),
	}

	if conf >= c.cfg.ContainThreshold {
		a.Action = c.containDevice(deviceID, a.Evidence)
		// Whether or not an enforcement hook was installed, containment
		// has been attempted: later repeats fall back under the cooldown.
		w.contained = true
		if a.Action != "" {
			c.cContained.Inc()
			if c.Tracer != nil {
				c.Tracer.EmitSpan(obs.Span{
					Time: now, Layer: obs.LayerCore, Op: "contain",
					Device: deviceID, Cause: a.Action,
				})
			}
		}
	}
	c.cAlerts.Inc()
	c.Detections.Observe(now, deviceID)
	c.Recorder.Trigger(now, obs.TriggerAlert)
	if c.Tracer != nil {
		c.Tracer.EmitSpan(obs.Span{
			Time: now, Layer: obs.LayerCore, Op: "alert",
			Device: deviceID, Cause: a.Severity.String(),
			Detail: fmt.Sprintf("conf=%.2f layers=%d", conf, len(layers)),
		})
	}
	c.alerts = append(c.alerts, a)
	if c.OnAlert != nil {
		c.OnAlert(a)
	}
	return &a
}

// containDevice picks and executes a containment action based on the
// evidence mix.
func (c *Core) containDevice(deviceID string, evidence []Signal) string {
	// Rogue-app evidence points at the service layer first.
	for _, s := range evidence {
		if strings.HasPrefix(s.Kind, "rogue-app:") && c.contain.RemoveApp != nil {
			c.contain.RemoveApp(strings.TrimPrefix(s.Kind, "rogue-app:"))
			return "app-removed"
		}
	}
	// Active malware (loader/beacon/flood) warrants quarantine.
	for _, s := range evidence {
		switch s.Kind {
		case "dpi:mirai-loader", "cc-beacon", "ddos-flood", "firmware-tamper":
			if c.contain.QuarantineDevice != nil {
				c.contain.QuarantineDevice(deviceID)
				if c.contain.RevokeTokens != nil {
					c.contain.RevokeTokens(deviceID)
				}
				return "quarantined"
			}
		}
	}
	if c.contain.BlockDevice != nil {
		c.contain.BlockDevice(deviceID)
		return "blocked"
	}
	return ""
}

// Alerts returns all raised alerts (a copy).
func (c *Core) Alerts() []Alert { return append([]Alert(nil), c.alerts...) }

// AlertsFor returns a device's alerts.
func (c *Core) AlertsFor(deviceID string) []Alert {
	var out []Alert
	for _, a := range c.alerts {
		if a.DeviceID == deviceID {
			out = append(out, a)
		}
	}
	return out
}

// FlaggedDevices lists devices with at least one alert, sorted.
func (c *Core) FlaggedDevices() []string {
	set := make(map[string]struct{})
	for _, a := range c.alerts {
		set[a.DeviceID] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// TokenLifetimeFor implements the §IV-A1 correlation-driven token policy:
// devices with recent alerts get sharply shorter token lifetimes.
func (c *Core) TokenLifetimeFor(deviceID string, base time.Duration, now time.Duration) time.Duration {
	recent := 0
	for _, a := range c.AlertsFor(deviceID) {
		if now-a.Time <= c.cfg.Window*5 {
			recent++
		}
	}
	switch {
	case recent == 0:
		return base
	case recent == 1:
		return base / 4
	default:
		return base / 16
	}
}
