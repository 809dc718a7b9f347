package core

import (
	"sort"
	"strings"
	"time"
)

// refCore is the XLF Core as it was before the incremental window, kept
// as the differential oracle for TestCoreMatchesReference and
// FuzzCoreIngest. Its correlation logic is verbatim: every ingest appends
// to the device's history, evicts from the front by time, caps the
// history at 2048 signals and rescans all of it for the maximum score and
// the layer set. Only the observability hooks (tracer, detection tracker,
// flight recorder, obs counters) are left out; plain counters stand in
// for Stats.
type refCore struct {
	cfg     Config
	contain Containment

	signals   map[string][]Signal // per device
	global    []Signal            // unattributed
	alerts    []Alert
	lastA     map[string]time.Duration
	contained map[string]bool

	OnAlert func(Alert)

	stats CoreStats
}

// newRefCore builds the oracle with cfg as New normalizes it.
func newRefCore(cfg Config, contain Containment) *refCore {
	return &refCore{
		cfg:       New(cfg, Containment{}).Config(),
		contain:   contain,
		signals:   make(map[string][]Signal),
		lastA:     make(map[string]time.Duration),
		contained: make(map[string]bool),
	}
}

func (c *refCore) layerEnabled(l LayerName) bool {
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

func (c *refCore) Ingest(sig Signal) *Alert {
	if !c.layerEnabled(sig.Layer) {
		c.stats.Dropped++
		return nil
	}
	c.stats.Ingested++
	if sig.DeviceID == "" {
		c.global = append(c.global, sig)
		return nil
	}
	hist := append(c.signals[sig.DeviceID], sig)
	// Evict signals outside the window.
	cut := 0
	for cut < len(hist) && hist[cut].Time < sig.Time-c.cfg.Window {
		cut++
	}
	hist = hist[cut:]
	const maxHist = 2048
	if len(hist) > maxHist {
		hist = hist[len(hist)-maxHist:]
	}
	c.signals[sig.DeviceID] = hist

	return c.evaluate(sig.DeviceID, sig.Time)
}

func (c *refCore) evaluate(deviceID string, now time.Duration) *Alert {
	hist := c.signals[deviceID]
	if len(hist) == 0 {
		return nil
	}
	layerSet := make(map[LayerName]struct{})
	var maxScore float64
	for _, s := range hist {
		layerSet[s.Layer] = struct{}{}
		if s.Score > maxScore {
			maxScore = s.Score
		}
	}
	conf := maxScore * (1 + c.cfg.LayerBonus*float64(len(layerSet)-1))
	if conf > 1 {
		conf = 1
	}
	if conf < c.cfg.AlertThreshold {
		return nil
	}
	escalation := conf >= c.cfg.ContainThreshold && !c.contained[deviceID]
	if last, ok := c.lastA[deviceID]; ok && now-last < c.cfg.Cooldown && !escalation {
		return nil
	}
	c.lastA[deviceID] = now

	layers := make([]LayerName, 0, len(layerSet))
	for l := range layerSet {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return layers[i] < layers[j] })

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
		Evidence:   append([]Signal(nil), hist...),
	}

	if conf >= c.cfg.ContainThreshold {
		a.Action = c.containDevice(deviceID, hist)
		c.contained[deviceID] = true
		if a.Action != "" {
			c.stats.Contained++
		}
	}
	c.stats.Alerts++
	c.alerts = append(c.alerts, a)
	if c.OnAlert != nil {
		c.OnAlert(a)
	}
	return &c.alerts[len(c.alerts)-1]
}

func (c *refCore) containDevice(deviceID string, evidence []Signal) string {
	for _, s := range evidence {
		if strings.HasPrefix(s.Kind, "rogue-app:") && c.contain.RemoveApp != nil {
			c.contain.RemoveApp(strings.TrimPrefix(s.Kind, "rogue-app:"))
			return "app-removed"
		}
	}
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
