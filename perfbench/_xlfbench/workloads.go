package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xlf"
	"xlf/internal/attack"
	"xlf/internal/exp"
	"xlf/internal/netsim"
	"xlf/internal/service"
	"xlf/internal/testbed"
)

// defaultSeed is the seed whose simulated outcome is pinned in
// pinnedDigests; other seeds are checked against invariants only.
const defaultSeed = 1

// pinnedDigests is the SHA-256 of each workload's outcome text at
// defaultSeed. A change that alters simulated behaviour must update the
// digest, which makes the change visible as intended. The paper-suite
// digest is that of `xlf-bench -all -clock step -seed 1` output.
var pinnedDigests = map[string]string{
	"home-3day":   "63a8a5f33d23c2ad5a19244f44f78121f6316a07348f5e27a04f15f76a682704",
	"nac-flood":   "eb1500bcd57f5500df4300f0bf2cde7563af8f4a8564e2263546af172f06c07b",
	"city-200k":   "78e58887b2ffb958a0662cdfd7cdd9cf77d308085d25ecd539130a084fcf965f",
	"paper-suite": "6d176d19468137d4b220c5416313b9ea6fcae651909f6cba16fce3e6fc820d7f",
}

// instance is one built workload: the system plus its scheduled inputs.
type instance interface {
	// run drives the simulation to its horizon. With st non-nil every
	// kernel step is timed and attributed to a layer.
	run(st *stepTracer) error
	// events is the number of kernel events the run dispatched.
	events() uint64
	// check verifies the invariants that hold for any seed.
	check() error
	// outcome renders the simulated outcome; traced and untraced runs of
	// one seed must render the same text.
	outcome() string
	// layers adds the per-layer counts read from public accessors.
	layers(m metricSet)
}

// workload names one schedule and how to build it from a seed.
type workload struct {
	name  string
	build func(seed int64, root string) (instance, error)
}

var workloads = []workload{
	{"home-3day", buildHome3Day},
	{"nac-flood", buildNACFlood},
	{"city-200k", buildCity},
	{"paper-suite", buildSuite},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// vulnerableFlaws is the legacy platform configuration the paper's
// long-horizon experiment (E9) protects.
func vulnerableFlaws() service.Flaws {
	return service.Flaws{CoarseGrants: true, UnsignedEvents: true, OpenRedirectOTA: true}
}

// homeRun is a protected smart home driven to a fixed horizon. It backs
// both home-3day (benign workload plus a Mirai campaign) and nac-flood
// (two compromised devices flooding an unenrolled WAN victim).
type homeRun struct {
	sys     *xlf.System
	horizon time.Duration
	mirai   *attack.MiraiRecruit
	bots    []string

	// extra counts the benchmark's own horizon event in a traced run.
	extra uint64
	// denies counts OnDeny calls; lost counts those that did not ingest
	// exactly one Core signal (nac-flood only).
	denies, lost uint64
}

// buildHome3Day is the realistic long-horizon deployment: the full stack
// with lightweight encryption over three days of diurnal benign traffic,
// with a Mirai campaign at 36 h.
func buildHome3Day(seed int64, _ string) (instance, error) {
	const days = 3
	sys, err := xlf.New(xlf.Options{Seed: seed, Flaws: vulnerableFlaws(), LightweightEncryption: true})
	if err != nil {
		return nil, err
	}
	sys.Home.ScheduleWorkload(sys.Home.GenerateWorkload(testbed.WorkloadConfig{Days: days, Intensity: 1}))
	m := &attack.MiraiRecruit{CNC: "wan:cnc", BeaconEvery: 20 * time.Second}
	env := sys.Home.AttackEnv()
	sys.Home.Kernel.Schedule(36*time.Hour, "campaign", func() { m.Execute(env) })
	return &homeRun{sys: sys, horizon: days * 24 * time.Hour, mirai: m}, nil
}

// buildNACFlood is the Core's worst case: two catalog devices, chosen by
// the seed, flood an unenrolled WAN victim at 100 pps each for five
// minutes. Every packet is a NAC denial that becomes a Core signal.
func buildNACFlood(seed int64, _ string) (instance, error) {
	sys, err := xlf.New(xlf.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(sys.Home.Devices))
	for id := range sys.Home.Devices {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(ids))
	bots := []string{ids[perm[0]], ids[perm[1]]}
	sort.Strings(bots)
	for _, id := range bots {
		sys.Home.Devices[id].Compromise("flood-bot")
	}
	flood := &attack.DDoSFlood{
		Victim:   netsim.Addr(fmt.Sprintf("wan:victim-%d", rng.Intn(1000))),
		Rate:     100,
		Duration: 5 * time.Minute,
		Bots:     bots,
	}
	const start = 30 * time.Second
	env := sys.Home.AttackEnv()
	sys.Home.Kernel.Schedule(start, "flood", func() { flood.Execute(env) })

	r := &homeRun{sys: sys, horizon: start + flood.Duration + 30*time.Second, bots: bots}
	deny := sys.NAC.OnDeny
	sys.NAC.OnDeny = func(pkt *netsim.Packet) {
		before := sys.Core.Stats().Ingested
		deny(pkt)
		r.denies++
		if sys.Core.Stats().Ingested != before+1 {
			r.lost++
		}
	}
	return r, nil
}

func (r *homeRun) run(st *stepTracer) error {
	if st != nil {
		st.wrapHome(r.sys)
		st.drive(r.sys.Home.Kernel, r.horizon)
		r.extra = 1
	}
	return r.sys.Home.Run(r.horizon)
}

func (r *homeRun) events() uint64 { return r.sys.Home.Kernel.Processed() - r.extra }

func (r *homeRun) check() error {
	sys := r.sys
	if r.mirai != nil {
		recruited := r.mirai.Recruited()
		if len(recruited) == 0 {
			return fmt.Errorf("campaign recruited no device")
		}
		victim := map[string]bool{}
		for _, id := range recruited {
			victim[id] = true
			contained := false
			for _, a := range sys.Core.AlertsFor(id) {
				contained = contained || a.Action != ""
			}
			if !contained {
				return fmt.Errorf("recruited device %s was not contained", id)
			}
		}
		// A benign device may draw a warning (the learned model flags
		// rare transitions, as E9's false-alert rate shows), but must never
		// be contained.
		for _, a := range sys.Core.Alerts() {
			if !victim[a.DeviceID] && a.Action != "" {
				return fmt.Errorf("containment of a device the campaign did not recruit: %s", a)
			}
		}
	}
	if r.bots != nil {
		denials := sys.NAC.Denials()
		blocked, _ := sys.Home.Gateway.Blocked()
		switch {
		case denials == 0:
			return fmt.Errorf("flood produced no NAC denial")
		case blocked != denials:
			return fmt.Errorf("gateway blocked %d packets but NAC denied %d", blocked, denials)
		case r.denies != denials || r.lost != 0:
			return fmt.Errorf("%d of %d denials reached OnDeny, %d did not ingest one Core signal",
				r.denies, denials, r.lost)
		}
	}
	return nil
}

func (r *homeRun) outcome() string {
	sys := r.sys
	var b strings.Builder
	delivered, dropped, bytes := sys.Home.Net.Stats()
	blockedOut, blockedIn := sys.Home.Gateway.Blocked()
	fmt.Fprintf(&b, "events=%d delivered=%d dropped=%d bytes=%d\n", r.events(), delivered, dropped, bytes)
	fmt.Fprintf(&b, "core=%+v nac_denials=%d forwarded=%d blocked=%d/%d captures=%d/%d\n",
		sys.Core.Stats(), sys.NAC.Denials(), sys.Home.Gateway.Forwarded(), blockedOut, blockedIn,
		sys.Home.LANCap.Len(), sys.Home.WANCap.Len())
	if r.mirai != nil {
		fmt.Fprintf(&b, "recruited=%s\n", strings.Join(r.mirai.Recruited(), ","))
	}
	if r.bots != nil {
		fmt.Fprintf(&b, "bots=%s\n", strings.Join(r.bots, ","))
	}
	for _, a := range sys.Core.Alerts() {
		fmt.Fprintln(&b, a)
	}
	return b.String()
}

func (r *homeRun) layers(m metricSet) {
	sys := r.sys
	st := sys.Core.Stats()
	m.count("core.ingested", st.Ingested)
	m.count("core.dropped", st.Dropped)
	m.count("core.alerts", st.Alerts)
	m.count("core.contained", st.Contained)
	if st.Ingested > 0 {
		m.set("core.alert_ratio", float64(st.Alerts)/float64(st.Ingested), "ratio", st.Ingested)
	}
	m.count("core.nac_denials", sys.NAC.Denials())
	var evidence uint64
	for _, a := range sys.Core.Alerts() {
		evidence += uint64(len(a.Evidence))
	}
	m.count("core.evidence_signals", evidence)
	delivered, dropped, bytes := sys.Home.Net.Stats()
	m.count("netsim.delivered", delivered)
	m.count("netsim.dropped", dropped)
	m.count("netsim.bytes", bytes)
	blocked, _ := sys.Home.Gateway.Blocked()
	m.count("netsim.gateway_forwarded", sys.Home.Gateway.Forwarded())
	m.count("netsim.gateway_blocked", blocked)
	m.count("netsim.capture_records", uint64(sys.Home.LANCap.Len()+sys.Home.WANCap.Len()))
	timeVerify(m, sys)
}

// cityRun is testbed.City at 200k sensors: the kernel, network and
// telemetry rollups at a large working set, with no Core, LWC, IDS or DPI.
type cityRun struct {
	city  *testbed.City
	stats testbed.CityStats
	extra uint64
}

const cityHorizon = 60 * time.Second

func buildCity(seed int64, _ string) (instance, error) {
	c, err := testbed.NewCity(testbed.CityConfig{
		Seed:           seed,
		Devices:        200000,
		ReportEvery:    10 * time.Second,
		Horizon:        cityHorizon,
		RollupInterval: time.Second,
		Attacks:        testbed.DefaultCityAttacks(),
	})
	if err != nil {
		return nil, err
	}
	return &cityRun{city: c}, nil
}

func (r *cityRun) run(st *stepTracer) error {
	if st != nil {
		st.drive(r.city.Kernel, cityHorizon)
		r.extra = 1
	}
	var err error
	r.stats, err = r.city.Run()
	return err
}

func (r *cityRun) events() uint64 { return r.stats.Events - r.extra }

func (r *cityRun) check() error {
	if r.stats.Sent == 0 {
		return fmt.Errorf("no report sent")
	}
	if r.stats.Dropped != 0 {
		return fmt.Errorf("%d reports dropped", r.stats.Dropped)
	}
	return nil
}

func (r *cityRun) outcome() string {
	s := r.stats
	var b strings.Builder
	fmt.Fprintf(&b, "devices=%d districts=%d sent=%d delivered=%d dropped=%d events=%d\n",
		s.Devices, s.Districts, s.Sent, s.Delivered, s.Dropped, r.events())
	tel := r.city.Telemetry()
	fmt.Fprintf(&b, "windows=%d dumps=%d\n", tel.Rollup.Total(), len(tel.Recorder.Dumps()))
	for _, d := range tel.Detections.Stats() {
		fmt.Fprintf(&b, "%+v\n", d)
	}
	return b.String()
}

func (r *cityRun) layers(m metricSet) {
	delivered, dropped, bytes := r.city.Net.Stats()
	m.count("netsim.delivered", delivered)
	m.count("netsim.dropped", dropped)
	m.count("netsim.bytes", bytes)
	tel := r.city.Telemetry()
	m.count("obs.windows", uint64(tel.Rollup.Total()))
	m.count("obs.dumps", uint64(len(tel.Recorder.Dumps())))
}

// suiteRun is every registry entry on the step clock at -parallel 1, the
// same as `xlf-bench -all -clock step`.
type suiteRun struct {
	seed    int64
	root    string
	env     *exp.Env
	results []*exp.Result
}

func buildSuite(seed int64, root string) (instance, error) {
	env := exp.NewStepEnv(seed)
	env.Workers = 1
	return &suiteRun{seed: seed, root: root, env: env}, nil
}

func (r *suiteRun) run(*stepTracer) error {
	r.results = (&exp.Scheduler{Parallel: 1}).Run(r.env, exp.Registry())
	return nil
}

// events counts the kernel events the suite reports itself: the
// experiments build their kernels internally, and only E10 publishes its
// dispatch count.
func (r *suiteRun) events() uint64 {
	var n float64
	for _, res := range r.results {
		n += res.Numbers["events_total"]
	}
	return uint64(n)
}

func (r *suiteRun) check() error {
	reg := exp.Registry()
	if len(r.results) != len(reg) {
		return fmt.Errorf("%d results for %d registry entries", len(r.results), len(reg))
	}
	for i, res := range r.results {
		if res.ID != reg[i].ID || res.Output == "" || res.Telemetry == nil {
			return fmt.Errorf("result %d (%s) is incomplete", i, res.ID)
		}
	}
	if r.seed == defaultSeed {
		return r.checkSeedArtifacts()
	}
	return nil
}

// checkSeedArtifacts compares E1, E8 and E10 with the committed
// step-clock artifacts in bench/seed, without writing to them.
func (r *suiteRun) checkSeedArtifacts() error {
	meta := exp.RunMeta{Seed: r.seed, Parallel: 1, Clock: exp.ClockStep}
	for _, res := range r.results {
		if res.ID != "E1" && res.ID != "E8" && res.ID != "E10" {
			continue
		}
		path := exp.ArtifactPath(filepath.Join(r.root, "bench", "seed"), res.ID)
		base, err := exp.ReadArtifact(path)
		if err != nil {
			return err
		}
		got := exp.NewArtifact(res, meta)
		if got.OutputSHA256 != base.OutputSHA256 || !maps.Equal(got.Numbers, base.Numbers) {
			return fmt.Errorf("%s: output or numbers differ from %s", res.ID, path)
		}
	}
	return nil
}

func (r *suiteRun) outcome() string { return exp.Render(r.results) }

func (r *suiteRun) layers(m metricSet) {
	for _, res := range r.results {
		m.seconds("exp."+res.ID+".wall_s", time.Duration(res.Telemetry.WallNS), 1)
		m.megabytes("exp."+res.ID+".alloc_mb", res.Telemetry.AllocBytes)
	}
}
