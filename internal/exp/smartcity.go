package exp

import (
	"fmt"
	"time"

	"xlf/internal/metrics"
	"xlf/internal/obs"
	"xlf/internal/testbed"
)

// runE10 is the kernel scale experiment behind the one-core kernel's
// million-device claim: the smart-city fleet (testbed.City) at increasing device counts on one
// simulation kernel, reporting dispatch volume and sustained event
// throughput. The registry sweep stops at 50k devices so the full suite
// stays fast under -race; examples/smartcity runs the same scenario at
// one million devices.
//
// It is the E10 registry entry. Each scale point builds its own city from
// the seed, so the grid fans out across env.Workers; throughput is timed
// on env.Clock, and the rendered columns are simulation counts only, so
// the table replays byte-identically under a step clock.
func runE10(env *Env) *Result {
	r := &Result{ID: "E10", Title: "Smart-city scale: one kernel, 10^3..5*10^4 devices"}
	t := metrics.NewTable("", "Devices", "Districts", "Reports", "Delivered", "KernelEvents", "SimTime")

	scales := []int{1000, 10000, 50000}
	type point struct {
		st           testbed.CityStats
		eventsPerSec float64
		injected     uint64
		detected     uint64
		breaches     uint64
		windows      uint64
		dumps        int
	}
	rows := Sweep(env, len(scales), func(i int, env *Env) point {
		cfg := testbed.CityConfig{
			Seed:        env.Seed,
			Devices:     scales[i],
			ReportEvery: 10 * time.Second,
			Horizon:     60 * time.Second,
		}
		// With telemetry on, each scale point runs the default attack
		// timeline and its rollups/dumps flow into the env's telemetry
		// tree under a per-scale source label.
		if interval := env.RollupInterval(); interval > 0 {
			cfg.RollupInterval = interval
			cfg.Attacks = testbed.DefaultCityAttacks()
		}
		city, err := testbed.NewCity(cfg)
		if err != nil {
			panic(err)
		}
		start := env.Clock()
		st, err := city.Run()
		if err != nil {
			panic(err)
		}
		elapsed := env.Clock() - start
		p := point{st: st}
		if elapsed > 0 {
			p.eventsPerSec = float64(st.Events) / elapsed.Seconds()
		}
		if tel := city.Telemetry(); tel != nil {
			env.AttachTelemetry(fmt.Sprintf("E10/%d", scales[i]), tel.Rollup, tel.Recorder)
			p.injected = tel.Registry.Counter(obs.DetectInjected).Value()
			p.detected = tel.Registry.Counter(obs.DetectDetected).Value()
			p.breaches = tel.Registry.Counter(obs.DetectSLOBreach).Value()
			p.windows = uint64(tel.Rollup.Total())
			p.dumps = len(tel.Recorder.Dumps())
		}
		return p
	})

	var events uint64
	telemetry := env.RollupInterval() > 0
	var injected, detected, breaches, windows uint64
	var dumps int
	for i, scale := range scales {
		st := rows[i].st
		if st.Dropped != 0 || st.Sent == 0 {
			panic(fmt.Sprintf("exp: E10 scale %d lost reports: %+v", scale, st))
		}
		events += st.Events
		injected += rows[i].injected
		detected += rows[i].detected
		breaches += rows[i].breaches
		windows += rows[i].windows
		dumps += rows[i].dumps
		t.AddRow(
			fmt.Sprintf("%d", st.Devices),
			fmt.Sprintf("%d", st.Districts),
			fmt.Sprintf("%d", st.Sent),
			fmt.Sprintf("%d", st.Delivered),
			fmt.Sprintf("%d", st.Events),
			st.Now.String(),
		)
	}

	r.Output = t.String()
	r.num("scales", float64(len(scales)))
	r.num("devices_max", float64(scales[len(scales)-1]))
	r.num("events_total", float64(events))
	// Host-dependent: excluded from Output so reports stay byte-identical.
	r.num("events_per_sec_max_scale", rows[len(rows)-1].eventsPerSec)
	if telemetry {
		// Present only under -telemetry; bench-compare skips the prefix.
		r.num("telemetry.injected", float64(injected))
		r.num("telemetry.detected", float64(detected))
		r.num("telemetry.slo_breaches", float64(breaches))
		r.num("telemetry.windows", float64(windows))
		r.num("telemetry.dumps", float64(dumps))
	}
	return r
}
