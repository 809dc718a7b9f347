package main

import (
	"sort"
	"strings"
	"time"

	"xlf"
	"xlf/internal/dpi"
	"xlf/internal/ids"
	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/sim"
)

// horizonEvent names the benchmark's own event at the horizon.
// Kernel.Step cannot peek at the next event's time, so the traced loop
// steps until this event fires; the caller then finishes with Kernel.Run
// to the horizon, which runs any event due exactly at the horizon that was
// scheduled after this one.
const horizonEvent = "perfbench-horizon"

// spanStat accumulates one kind of span: kernel steps of one event kind,
// or calls of one wrapped hook.
type spanStat struct {
	n    uint64
	busy time.Duration // self time for steps, full duration for hooks
	ns   []int64       // per-span durations, for percentiles
}

func (s *spanStat) add(d, self time.Duration) {
	s.n++
	s.busy += self
	s.ns = append(s.ns, int64(d))
}

// stepTracer runs a kernel one Step at a time and times each step. The
// kernel's sim-layer "event" span names the event; the step index is the
// span identifier. Child spans come from the timed hook wrappers, and a
// step's self time is its duration minus its top-level hook time.
type stepTracer struct {
	ring  *obs.Tracer
	kinds map[string]*spanStat // layer metric prefix -> steps of that kind
	hooks map[string]*spanStat // layer metric prefix -> hook calls
	steps spanStat             // every step

	depth int           // nesting depth of wrapped hooks
	child time.Duration // top-level hook time inside the current step
	// byName caches the kind of each event name seen.
	byName map[string]*spanStat
	// taps is the packet stream XLF's taps saw, for the IDS and DPI
	// replay; nil when the workload has no taps.
	taps *tapLog
}

func newStepTracer() *stepTracer {
	return &stepTracer{
		ring:   obs.NewTracer(1, nil),
		kinds:  map[string]*spanStat{},
		hooks:  map[string]*spanStat{},
		byName: map[string]*spanStat{},
	}
}

// eventKind maps a kernel event name to the layer metric prefix its
// steps are charged to. Names come from the Schedule/Every call sites.
func eventKind(name string) string {
	switch {
	case name == "xlf-attest":
		return "device.attest"
	case strings.HasSuffix(name, "-keepalive"):
		return "testbed.keepalive"
	case strings.HasPrefix(name, "workload:"):
		return "testbed.user_event"
	case name == "deliver":
		return "netsim.deliver"
	case name == "city-report":
		return "testbed.city_report"
	case name == "city-telemetry":
		return "obs.telemetry"
	case name == "campaign", name == "flood", name == "city-attack", name == "ddos",
		name == "ddos-stop", name == "spam", strings.HasPrefix(name, "mirai-"):
		return "attack"
	}
	return "other"
}

// statFor returns the named stats in m, adding empty ones if absent.
func statFor(m map[string]*spanStat, name string) *spanStat {
	s := m[name]
	if s == nil {
		s = &spanStat{}
		m[name] = s
	}
	return s
}

func (t *stepTracer) kind(name string) *spanStat {
	s, ok := t.byName[name]
	if !ok {
		s = statFor(t.kinds, eventKind(name))
		t.byName[name] = s
	}
	return s
}

// drive steps k until its horizon event fires, timing every step.
func (t *stepTracer) drive(k *sim.Kernel, horizon time.Duration) {
	done := false
	k.ScheduleAt(horizon, horizonEvent, func() { done = true })
	k.SetTracer(t.ring)
	defer k.SetTracer(nil)
	for !done {
		t.child = 0
		t0 := time.Now()
		if !k.Step() {
			return
		}
		d := time.Since(t0)
		name := t.ring.Spans()[0].Cause
		if name == horizonEvent {
			continue
		}
		self := d - t.child
		t.steps.add(d, self)
		t.kind(name).add(d, self)
	}
}

// enter opens a child span; exit closes it and charges it to s. Only
// top-level child spans are subtracted from the enclosing step.
func (t *stepTracer) enter() time.Time {
	t.depth++
	return time.Now()
}

func (t *stepTracer) exit(s *spanStat, t0 time.Time) {
	d := time.Since(t0)
	t.depth--
	if t.depth == 0 {
		t.child += d
	}
	s.add(d, d)
}

// timedHook wraps a hook so each call is a child span charged to name.
func timedHook[T any](t *stepTracer, name string, hook func(T)) func(T) {
	s := statFor(t.hooks, name)
	return func(v T) {
		t0 := t.enter()
		hook(v)
		t.exit(s, t0)
	}
}

// wrapHome replaces the exported hooks of a protected home with timed
// wrappers that call the original hook, and records the tapped packet
// stream.
func (t *stepTracer) wrapHome(sys *xlf.System) {
	t.taps = t.attachTapLog(sys.Home.Net)
	gw, cloud := sys.Home.Gateway, sys.Home.Cloud
	if policy := gw.OutboundPolicy; policy != nil {
		s := statFor(t.hooks, "core.nac")
		gw.OutboundPolicy = func(pkt *netsim.Packet) error {
			t0 := t.enter()
			err := policy(pkt)
			t.exit(s, t0)
			return err
		}
	}
	if gw.OnForward != nil {
		gw.OnForward = timedHook(t, "netsim.forward_hook", gw.OnForward)
	}
	if sys.NAC.OnDeny != nil {
		sys.NAC.OnDeny = timedHook(t, "core.deny_signal", sys.NAC.OnDeny)
	}
	if cloud.EventMonitor != nil {
		cloud.EventMonitor = timedHook(t, "service.event_monitor", cloud.EventMonitor)
	}
	if cloud.CommandMonitor != nil {
		cloud.CommandMonitor = timedHook(t, "service.command_monitor", cloud.CommandMonitor)
	}
}

// layers adds the timing metrics of one traced run.
func (t *stepTracer) layers(m metricSet) {
	m.seconds("sim.self_s", t.steps.busy, t.steps.n)
	m.percentiles("sim.step_ns", t.steps.ns)

	attest := statFor(t.kinds, "device.attest")
	m.count("device.attest_steps", attest.n)
	m.seconds("device.attest_busy_s", attest.busy, attest.n)
	m.percentiles("device.attest_ns", attest.ns)

	for _, k := range []string{"testbed.keepalive", "testbed.user_event", "testbed.city_report", "obs.telemetry"} {
		s := statFor(t.kinds, k)
		m.count(k+"_steps", s.n)
		m.seconds(k+"_busy_s", s.busy, s.n)
	}
	// The System's taps run IDS and DPI inside deliver steps; their
	// replayed time stands in for the child spans the taps cannot have.
	deliver := statFor(t.kinds, "netsim.deliver")
	inTaps := t.taps.replay(m)
	m.count("netsim.deliver_steps", deliver.n)
	m.seconds("netsim.deliver_busy_s", max(deliver.busy-inTaps, 0), deliver.n)
	m.percentiles("netsim.deliver_ns", deliver.ns)
	atk := statFor(t.kinds, "attack")
	m.count("attack.steps", atk.n)
	m.seconds("attack.busy_s", atk.busy, atk.n)

	nac := statFor(t.hooks, "core.nac")
	m.seconds("core.nac_busy_s", nac.busy, nac.n)
	deny := statFor(t.hooks, "core.deny_signal")
	m.seconds("core.deny_signal_busy_s", deny.busy, deny.n)
	m.percentiles("core.deny_signal_ns", deny.ns)
	fwd := statFor(t.hooks, "netsim.forward_hook")
	m.count("netsim.forward_hook_calls", fwd.n)
	m.seconds("netsim.forward_hook_busy_s", fwd.busy, fwd.n)
	for _, h := range []string{"service.event_monitor", "service.command_monitor"} {
		s := statFor(t.hooks, h)
		m.count(h+"_calls", s.n)
		m.seconds(h+"_busy_s", s.busy, s.n)
	}
}

// tapLog records the packet stream XLF's taps see, built exactly as the
// System's tap builds its records, so IDS and DPI, which cannot be
// wrapped in place, can be replayed through fresh instances.
type tapLog struct {
	recs []netsim.PacketRecord
	lan  []bool
}

// attachTapLog adds the recording tap. Its own time is a child span
// that no layer is charged with.
func (t *stepTracer) attachTapLog(n *netsim.Network) *tapLog {
	l := &tapLog{}
	s := statFor(t.hooks, "trace.tap")
	tap := func(dir netsim.TapDirection, pkt *netsim.Packet) {
		t0 := t.enter()
		l.record(dir, pkt)
		t.exit(s, t0)
	}
	n.AddTap(netsim.TapLAN, tap)
	n.AddTap(netsim.TapWAN, tap)
	return l
}

func (l *tapLog) record(dir netsim.TapDirection, pkt *netsim.Packet) {
	rec := netsim.PacketRecord{
		Time: pkt.DeliveredAt, Src: pkt.Src, Dst: pkt.Dst,
		SrcPort: pkt.SrcPort, DstPort: pkt.DstPort,
		Proto: pkt.Proto, Size: pkt.Size, Encrypted: pkt.Encrypted,
	}
	if !pkt.Encrypted {
		rec.DNSName = pkt.DNSName
		rec.Payload = append([]byte(nil), pkt.Payload...)
	}
	l.recs = append(l.recs, rec)
	l.lan = append(l.lan, dir == netsim.TapLAN)
}

// replay times the recorded stream through a fresh IDS pipeline and a
// fresh DPI rule set, on the same records and conditions as the System,
// and returns their summed busy time. A nil log records nothing.
func (l *tapLog) replay(m metricSet) time.Duration {
	if l == nil {
		return 0
	}
	pipe := ids.DefaultPipeline()
	var alerts int
	t0 := time.Now()
	for _, rec := range l.recs {
		alerts += len(pipe.Process(rec))
	}
	idsBusy := time.Since(t0)
	n := uint64(len(l.recs))
	m.count("ids.records", n)
	m.seconds("ids.busy_s", idsBusy, n)
	if n > 0 {
		m.set("ids.ns_per_record", float64(idsBusy.Nanoseconds())/float64(n), "ns", n)
	}
	m.count("ids.alerts", uint64(alerts))

	rules, err := dpi.NewRuleSet(dpi.IoTMalwareRules())
	if err != nil {
		panic(err) // the built-in rule set is valid; xlf.New builds the same one
	}
	var scans, bytes, detections, sealed uint64
	var dpiBusy time.Duration
	for i, rec := range l.recs {
		if !l.lan[i] && rec.Proto == "XLF-LWC" {
			sealed++
		}
		if !l.lan[i] || len(rec.Payload) == 0 {
			continue
		}
		t0 := time.Now()
		dets := rules.MatchPlain(rec.Payload)
		dpiBusy += time.Since(t0)
		scans++
		bytes += uint64(len(rec.Payload))
		detections += uint64(len(dets))
	}
	m.count("dpi.scans", scans)
	m.count("dpi.bytes_scanned", bytes)
	m.seconds("dpi.busy_s", dpiBusy, scans)
	m.count("dpi.detections", detections)
	// Only sealed payloads travel as XLF-LWC; each crosses the WAN tap once.
	m.count("channel.sealed", sealed)
	return idsBusy + dpiBusy
}

// timeVerify times the device layer's attestation primitive,
// Firmware.Verify, on every device of the home; it reports the median
// per-call time.
func timeVerify(m metricSet, sys *xlf.System) {
	devs := make([]string, 0, len(sys.Home.Devices))
	for id := range sys.Home.Devices {
		devs = append(devs, id)
	}
	sort.Strings(devs)
	const calls = 16
	var ns []int64
	for _, id := range devs {
		fw := sys.Home.Devices[id].Firmware
		for i := 0; i < calls; i++ {
			t0 := time.Now()
			fw.Verify()
			ns = append(ns, int64(time.Since(t0)))
		}
	}
	if len(ns) > 0 {
		m.set("device.verify_ns", float64(quantile(ns, 0.5)), "ns", uint64(len(ns)))
	}
}
