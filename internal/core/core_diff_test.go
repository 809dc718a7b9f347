package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// The incremental Core must be observationally identical to the rescan
// Core it replaced (refCore): the same alert after every ingest, bit for
// bit, the same containment hook calls in the same order, the same
// OnAlert stream and the same counters. The tests here run directed
// signal streams and decoded byte programs through both.

// hookSet selects which containment hooks a run installs.
type hookSet uint8

const (
	hookBlock hookSet = 1 << iota
	hookQuarantine
	hookRemoveApp
	hookRevoke
	hooksAll = hookBlock | hookQuarantine | hookRemoveApp | hookRevoke
)

// loggingContainment installs the hooks in set, each appending its call
// to *log.
func loggingContainment(set hookSet, log *[]string) Containment {
	var c Containment
	if set&hookBlock != 0 {
		c.BlockDevice = func(id string) { *log = append(*log, "block "+id) }
	}
	if set&hookQuarantine != 0 {
		c.QuarantineDevice = func(id string) { *log = append(*log, "quarantine "+id) }
	}
	if set&hookRemoveApp != 0 {
		c.RemoveApp = func(id string) { *log = append(*log, "remove-app "+id) }
	}
	if set&hookRevoke != 0 {
		c.RevokeTokens = func(id string) { *log = append(*log, "revoke "+id) }
	}
	return c
}

// sameSignal compares two signals field by field, the score by its bits.
func sameSignal(a, b Signal) bool {
	return a.Time == b.Time && a.Layer == b.Layer && a.Source == b.Source &&
		a.DeviceID == b.DeviceID && a.Kind == b.Kind && a.Detail == b.Detail &&
		math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// alertDiff describes how got differs from want, or returns "".
func alertDiff(got, want Alert) string {
	switch {
	case got.Time != want.Time:
		return fmt.Sprintf("Time %v, want %v", got.Time, want.Time)
	case got.DeviceID != want.DeviceID:
		return fmt.Sprintf("DeviceID %q, want %q", got.DeviceID, want.DeviceID)
	case got.Severity != want.Severity:
		return fmt.Sprintf("Severity %v, want %v", got.Severity, want.Severity)
	case math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence):
		return fmt.Sprintf("Confidence %v (%#x), want %v (%#x)", got.Confidence,
			math.Float64bits(got.Confidence), want.Confidence, math.Float64bits(want.Confidence))
	case !slices.Equal(got.Layers, want.Layers):
		return fmt.Sprintf("Layers %v, want %v", got.Layers, want.Layers)
	case !slices.EqualFunc(got.Evidence, want.Evidence, sameSignal):
		return fmt.Sprintf("Evidence differs (%d signals, want %d)", len(got.Evidence), len(want.Evidence))
	case got.Action != want.Action:
		return fmt.Sprintf("Action %q, want %q", got.Action, want.Action)
	}
	return ""
}

// diffSignals feeds sigs to a Core and to the reference and fails on the
// first divergence.
func diffSignals(t testing.TB, cfg Config, hooks hookSet, sigs []Signal) {
	t.Helper()
	var gotHooks, wantHooks []string
	var gotSeen, wantSeen []Alert
	c := New(cfg, loggingContainment(hooks, &gotHooks))
	c.OnAlert = func(a Alert) { gotSeen = append(gotSeen, a) }
	r := newRefCore(cfg, loggingContainment(hooks, &wantHooks))
	r.OnAlert = func(a Alert) { wantSeen = append(wantSeen, a) }

	for i, s := range sigs {
		got, want := c.Ingest(s), r.Ingest(s)
		switch {
		case (got == nil) != (want == nil):
			t.Fatalf("signal %d %+v: alert %v, reference %v", i, s, got, want)
		case got != nil:
			if d := alertDiff(*got, *want); d != "" {
				t.Fatalf("signal %d %+v: %s", i, s, d)
			}
		}
		if !slices.Equal(gotHooks, wantHooks) {
			t.Fatalf("signal %d %+v: hook calls %q, reference %q", i, s, gotHooks, wantHooks)
		}
	}
	sameAlerts := func(name string, got, want []Alert) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d alerts, reference %d", name, len(got), len(want))
		}
		for i := range got {
			if d := alertDiff(got[i], want[i]); d != "" {
				t.Fatalf("%s[%d]: %s", name, i, d)
			}
		}
	}
	sameAlerts("Alerts()", c.Alerts(), r.alerts)
	sameAlerts("OnAlert", gotSeen, wantSeen)
	if got := c.Stats(); got != r.stats {
		t.Fatalf("Stats() = %+v, reference %+v", got, r.stats)
	}
}

// Program decoding, shared by the random corpus and the fuzzer.
var (
	progDevices = []string{"cam-1", "bulb-1", "hub-1", ""}
	progLayers  = []LayerName{Device, Network, Service, "radio", ""}
	progKinds   = []string{
		"scan", "rogue-app:wallpaper", "dpi:mirai-loader", "cc-beacon",
		"ddos-flood", "firmware-tamper", "illegal-transition", "rogue-app:",
	}
	progScores = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), -0.5, math.Copysign(0, -1), 0,
		0.3, 0.55, 0.6, 0.7, 0.85, 0.9, 1, 1.5, math.SmallestNonzeroFloat64, 0.45,
	}
	progWindows   = []time.Duration{0, 10 * time.Second, 2 * time.Minute, time.Hour}
	progCooldowns = []time.Duration{0, time.Millisecond, 30 * time.Second, 10 * time.Minute}
	progBonuses   = []float64{0.25, 0, 0.5, -1}
	progAblations = [][]LayerName{nil, {Network}, {Device, Service}, {"radio", Network}}
	progAlerts    = []float64{0, 0.3, 0.6, 0.9}
	progContains  = []float64{0, 0.5, 0.85, 1.5}
)

// progLimit bounds a decoded program, keeping the reference (O(window)
// per signal) fast enough for fuzzing.
const progLimit = 6000

// decodeProgram turns bytes into a Core configuration, a hook set and a
// signal stream. Every byte value decodes to something, so any input is a
// valid program.
//
// The two header bytes pick the window, cooldown, layer bonus, ablation,
// alert and contain thresholds (index 0 of window, cooldown and the
// thresholds means "default"); the hook set comes from the second byte's
// high nibble. Each 4-byte record (dt, who, kind, score) then emits one
// signal:
//   - dt moves the clock by int8(dt) quarter seconds, so the stream runs
//     backwards as well as forwards; 0x80 jumps to the minimum Duration
//     (the window cutoff wraps) and 0x7f to near the maximum.
//   - who: bits 0-1 pick the device ("" is unattributed), bits 2-4 the
//     layer (modulo the table, names outside the three constants
//     included), and bits 5-7 == 7 repeat the signal 512 times 1 ms
//     apart, which reaches the 2048-signal cap in a few records.
//   - kind picks the kind; score < 16 picks a special score (NaN, ±Inf,
//     negatives, ±0, thresholds' edges), otherwise (score-16)/200.
func decodeProgram(data []byte) (Config, hookSet, []Signal) {
	var h0, h1 byte
	if len(data) > 0 {
		h0, data = data[0], data[1:]
	}
	if len(data) > 0 {
		h1, data = data[0], data[1:]
	}
	cfg := Config{
		Window:           progWindows[h0&3],
		Cooldown:         progCooldowns[h0>>2&3],
		LayerBonus:       progBonuses[h0>>4&3],
		EnabledLayers:    progAblations[h0>>6],
		AlertThreshold:   progAlerts[h1&3],
		ContainThreshold: progContains[h1>>2&3],
	}
	hooks := hookSet(h1>>4) & hooksAll
	var sigs []Signal
	var now time.Duration
	for i := 0; i+3 < len(data) && len(sigs) < progLimit; i += 4 {
		dt, who, kind, score := data[i], data[i+1], data[i+2], data[i+3]
		switch dt {
		case 0x80:
			now = math.MinInt64
		case 0x7f:
			now = math.MaxInt64 - time.Hour
		default:
			now += time.Duration(int8(dt)) * 250 * time.Millisecond
		}
		s := Signal{
			Time:     now,
			Layer:    progLayers[int(who>>2&7)%len(progLayers)],
			Source:   "prog",
			DeviceID: progDevices[who&3],
			Kind:     progKinds[int(kind)%len(progKinds)],
			Detail:   fmt.Sprint(i / 4),
		}
		if score < 16 {
			s.Score = progScores[score]
		} else {
			s.Score = float64(score-16) / 200
		}
		n := 1
		if who>>5 == 7 {
			n = 512
		}
		for j := 0; j < n && len(sigs) < progLimit; j++ {
			sigs = append(sigs, s)
			s.Time += time.Millisecond
			now = s.Time
		}
	}
	return cfg, hooks, sigs
}

func diffProgram(t testing.TB, data []byte) {
	t.Helper()
	cfg, hooks, sigs := decodeProgram(data)
	diffSignals(t, cfg, hooks, sigs)
}

// TestCoreMatchesReference drives directed streams covering each edge of
// the window and alert logic, then a corpus of random programs.
func TestCoreMatchesReference(t *testing.T) {
	s := func(at time.Duration, layer LayerName, dev, kind string, score float64) Signal {
		return Signal{Time: at, Layer: layer, Source: "directed", DeviceID: dev, Kind: kind, Score: score}
	}
	short := DefaultConfig()
	short.Window = time.Minute

	// atCap fills cam-1's window to exactly 2048 signals; the first is
	// newer than the rest (out of order), so the front stops time eviction
	// and the cap drop uncovers stale signals behind it.
	atCap := []Signal{s(10*time.Minute, Device, "cam-1", "firmware-tamper", 0.5)}
	for i := 1; i < 2048; i++ {
		atCap = append(atCap, s(time.Duration(i)*time.Millisecond, Network, "cam-1", "scan", 0.7))
	}

	type directed struct {
		name  string
		cfg   Config
		hooks hookSet
		sigs  []Signal
	}
	cases := []directed{
		{name: "empty", cfg: DefaultConfig()},
		{name: "out-of-order front shields stale evidence", cfg: short, hooks: hooksAll, sigs: []Signal{
			s(100*time.Second, Network, "cam-1", "scan", 0.55),
			s(0, Device, "cam-1", "firmware-tamper", 0.5),
			s(130*time.Second, Service, "cam-1", "scan", 0.4), // 0 s stays live behind 100 s
			s(170*time.Second, Service, "cam-1", "scan", 0.4), // 100 s evicted, 0 s with it
			s(20*time.Second, Network, "cam-1", "scan", 0.9),  // far in the past
		}},
		{name: "cap drop with out-of-order front", cfg: DefaultConfig(), hooks: hookBlock,
			sigs: append(slices.Clone(atCap),
				s(10*time.Minute, Service, "cam-1", "scan", 0.1),
				s(10*time.Minute+time.Second, Service, "cam-1", "scan", 0.1))},
		{name: "cap drop in order", cfg: DefaultConfig(), sigs: func() []Signal {
			var out []Signal
			for i := 0; i < 5000; i++ {
				score := 0.2
				if i%1500 == 0 {
					score = 0.65 // the maximum leaves the window via the cap
				}
				out = append(out, s(time.Duration(i)*time.Millisecond, progLayers[i%3], "cam-1", "scan", score))
			}
			return out
		}()},
		{name: "maximum evicted by time", cfg: short, sigs: []Signal{
			s(0, Network, "cam-1", "scan", 0.95),
			s(10*time.Second, Network, "cam-1", "scan", 0.3),
			s(20*time.Second, Network, "cam-1", "scan", 0.5),
			s(61*time.Second, Device, "cam-1", "scan", 0.2),
			s(75*time.Second, Device, "cam-1", "scan", 0.62),
			s(81*time.Second, Device, "cam-1", "scan", 0.1),
		}},
		{name: "cooldown edges", cfg: DefaultConfig(), sigs: []Signal{
			s(time.Second, Network, "cam-1", "scan", 0.7),
			s(time.Second+time.Minute-1, Network, "cam-1", "scan", 0.7),
			s(time.Second+time.Minute, Network, "cam-1", "scan", 0.7),
			s(time.Second+time.Minute, Network, "bulb-1", "scan", 0.7),
		}},
		{name: "escalation bypasses cooldown once", cfg: DefaultConfig(), hooks: hookQuarantine | hookRevoke, sigs: []Signal{
			s(time.Second, Network, "cam-1", "cc-beacon", 0.7),
			s(2*time.Second, Network, "cam-1", "cc-beacon", 0.9),
			s(3*time.Second, Network, "cam-1", "cc-beacon", 0.95),
			s(2*time.Minute+2*time.Second, Device, "cam-1", "cc-beacon", 0.95),
		}},
		{name: "escalation without hooks", cfg: DefaultConfig(), sigs: []Signal{
			s(time.Second, Network, "cam-1", "dpi:mirai-loader", 0.9),
			s(2*time.Second, Network, "cam-1", "dpi:mirai-loader", 0.9),
		}},
		{name: "ablation", cfg: Config{EnabledLayers: []LayerName{Network, "radio"}}, hooks: hooksAll, sigs: []Signal{
			s(time.Second, Device, "cam-1", "firmware-tamper", 0.99),
			s(2*time.Second, "radio", "cam-1", "scan", 0.55),
			s(3*time.Second, Network, "cam-1", "rogue-app:x", 0.55),
			s(4*time.Second, Service, "", "scan", 0.99),
		}},
		{name: "NaN and non-positive scores", cfg: DefaultConfig(), hooks: hookBlock, sigs: []Signal{
			s(time.Second, Network, "cam-1", "scan", math.NaN()),
			s(2*time.Second, Device, "cam-1", "scan", -0.9),
			s(3*time.Second, Service, "cam-1", "scan", math.Copysign(0, -1)),
			s(4*time.Second, "radio", "cam-1", "scan", 0.4),
			s(5*time.Second, Network, "cam-1", "scan", math.NaN()),
			s(6*time.Second, Network, "cam-1", "scan", math.Inf(-1)),
		}},
		{name: "infinite score with negative bonus", cfg: Config{LayerBonus: -1}, hooks: hooksAll, sigs: []Signal{
			s(time.Second, Network, "cam-1", "scan", math.Inf(1)),
			s(2*time.Second, Device, "cam-1", "scan", 0.1),
			s(3*time.Second, Service, "cam-1", "scan", 0.1),
		}},
		{name: "unattributed", cfg: DefaultConfig(), hooks: hooksAll, sigs: []Signal{
			s(time.Second, Network, "", "ddos-flood", 0.99),
			s(2*time.Second, Device, "", "firmware-tamper", 0.99),
			s(3*time.Second, Network, "cam-1", "scan", 0.5),
		}},
		{name: "layer names outside the constants", cfg: DefaultConfig(), hooks: hookRemoveApp, sigs: []Signal{
			s(time.Second, "radio", "cam-1", "rogue-app:a", 0.5),
			s(2*time.Second, "", "cam-1", "scan", 0.5),
			s(3*time.Second, "zigbee", "cam-1", "scan", 0.5),
			s(4*time.Second, Network, "cam-1", "rogue-app:b", 0.5),
		}},
		{name: "window cutoff wraps", cfg: DefaultConfig(), hooks: hookBlock, sigs: []Signal{
			s(time.Second, Network, "cam-1", "scan", 0.9),
			s(math.MinInt64, Network, "cam-1", "scan", 0.9),
			s(math.MinInt64+time.Second, Device, "cam-1", "scan", 0.9),
			s(math.MaxInt64, Device, "cam-1", "scan", 0.9),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { diffSignals(t, tc.cfg, tc.hooks, tc.sigs) })
	}

	// Random programs: mostly short streams over several devices, plus a
	// few that repeat signals past the cap.
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 400; n++ {
		p := make([]byte, 2+4*rng.Intn(80))
		rng.Read(p)
		for i := 3; i < len(p); i += 4 {
			if p[i]>>5 == 7 && n%100 != 0 {
				p[i] &^= 0x20 // repeats only in every 100th program
			}
		}
		diffProgram(t, p)
	}
}

// FuzzCoreIngest is the smoke-fuzz entry wired into scripts/check.sh: the
// fuzzer explores signal programs (see decodeProgram) and the
// differential oracle rejects any divergence from the reference Core.
func FuzzCoreIngest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 0xf3, 4, 0, 3, 1, 4, 2, 5, 4, 2, 5, 30})
	f.Add([]byte{0x00, 0x00, 4, 0xe1, 0, 20, 0x80, 0x04, 5, 30, 0x7f, 0x08, 1, 200})
	f.Add([]byte{0x01, 0x20, 40, 0xe0, 1, 150, 0xf0, 0xe4, 2, 160, 8, 0xe8, 0, 170, 8, 0xe0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+4*128 {
			data = data[:2+4*128]
		}
		diffProgram(t, data)
	})
}
