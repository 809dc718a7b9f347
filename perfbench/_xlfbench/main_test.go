package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xlf"
	"xlf/internal/netsim"
	"xlf/internal/service"
	"xlf/internal/sim"
)

// root is the repository root, two levels above this module.
var root = filepath.Join("..", "..")

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkJSON(t *testing.T) (endToEnd, perLayer []declared) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.EndToEnd, b.PerLayer
}

// printed returns the metric names and units of a result's JSON line.
func printed(t *testing.T, r *result) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	r.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for name, m := range out.Metrics {
		got[name] = m.Unit
	}
	return got
}

func checkNames(t *testing.T, what string, got map[string]string, want []declared) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: printed %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for _, d := range want {
		if unit, ok := got[d.Name]; !ok || unit != d.Unit {
			t.Errorf("%s: declared %s [%s], printed [%s] (present %v)", what, d.Name, d.Unit, unit, ok)
		}
	}
}

// TestWorkloads runs every workload once untraced and once traced at the
// default seed. Both runs must pass their checks, including the pinned
// outcome digest, and reach the same outcome; the printed metric names
// must be exactly those BENCHMARK.json declares; and no per-layer busy
// time may exceed the traced run's wall time.
func TestWorkloads(t *testing.T) {
	e2e, layers := readBenchmarkJSON(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			plain, bad, err := runOnce(w, defaultSeed, root, false)
			if err != nil || bad != nil {
				t.Fatalf("untraced run: err %v, check %v", err, bad)
			}
			traced, bad, err := runOnce(w, defaultSeed, root, true)
			if err != nil || bad != nil {
				t.Fatalf("traced run: err %v, check %v", err, bad)
			}
			if plain.digest != traced.digest {
				t.Fatalf("traced outcome %s differs from untraced %s", traced.digest, plain.digest)
			}
			if plain.events != traced.events {
				t.Errorf("traced run dispatched %d events, untraced %d", traced.events, plain.events)
			}

			wall := traced.layers["trace.wall_s"].value
			for name, m := range traced.layers {
				if (strings.HasSuffix(name, "_busy_s") || name == "sim.self_s") && m.value > wall {
					t.Errorf("%s = %gs exceeds the traced run's wall time %gs", name, m.value, wall)
				}
			}

			r := &result{workload: w.name, attempted: 1, metrics: endToEndMedians([]sample{plain}, []float64{plain.setup.Seconds()})}
			checkNames(t, "untraced", printed(t, r), e2e)
			r.metrics = layerMedians([]sample{plain}, []sample{traced})
			checkNames(t, "traced", printed(t, r), layers)
		})
	}
}

func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	_, layers := readBenchmarkJSON(t)
	defs := perLayer()
	if len(defs) != len(layers) {
		t.Fatalf("perLayer has %d metrics, BENCHMARK.json %d", len(defs), len(layers))
	}
	for i, d := range defs {
		if d.name != layers[i].Name || d.unit != layers[i].Unit {
			t.Errorf("metric %d: %s [%s] here, %s [%s] in BENCHMARK.json", i, d.name, d.unit, layers[i].Name, layers[i].Unit)
		}
	}
}

// TestWrappedHooksCallOriginal checks that every timed wrapper passes its
// call and its result through to the hook it replaced.
func TestWrappedHooksCallOriginal(t *testing.T) {
	sys, err := xlf.New(xlf.Options{Seed: defaultSeed})
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	denied := errors.New("denied")
	gw, cloud := sys.Home.Gateway, sys.Home.Cloud
	gw.OutboundPolicy = func(*netsim.Packet) error { calls["policy"]++; return denied }
	gw.OnForward = func(*netsim.Packet) { calls["forward"]++ }
	sys.NAC.OnDeny = func(*netsim.Packet) { calls["deny"]++ }
	cloud.EventMonitor = func(service.Event) { calls["event"]++ }
	cloud.CommandMonitor = func(service.Command) { calls["command"]++ }

	st := newStepTracer()
	st.wrapHome(sys)
	pkt := &netsim.Packet{Src: "lan:bulb-1", Dst: "wan:victim"}
	if err := gw.OutboundPolicy(pkt); err != denied {
		t.Errorf("wrapped OutboundPolicy returned %v, want the original's error", err)
	}
	gw.OnForward(pkt)
	sys.NAC.OnDeny(pkt)
	cloud.EventMonitor(service.Event{})
	cloud.CommandMonitor(service.Command{})

	for _, h := range []string{"policy", "forward", "deny", "event", "command"} {
		if calls[h] != 1 {
			t.Errorf("original %s hook called %d times, want 1", h, calls[h])
		}
	}
	for _, h := range []string{"core.nac", "netsim.forward_hook", "core.deny_signal", "service.event_monitor", "service.command_monitor"} {
		if n := statFor(st.hooks, h).n; n != 1 {
			t.Errorf("%s recorded %d calls, want 1", h, n)
		}
	}
}

// TestDriveStopsAtHorizon checks that the traced loop runs exactly the
// events Kernel.Run would: those due at or before the horizon.
func TestDriveStopsAtHorizon(t *testing.T) {
	const horizon = time.Second
	var ran []string
	schedule := func(k *sim.Kernel) {
		for _, at := range []time.Duration{horizon / 2, horizon, horizon + 1, 2 * horizon} {
			at := at
			k.ScheduleAt(at, "deliver", func() { ran = append(ran, at.String()) })
		}
	}
	k := sim.NewKernel(1)
	schedule(k)
	k.ScheduleAt(horizon, "deliver", func() { ran = append(ran, "late") })
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	want := strings.Join(ran, ",")

	ran = nil
	k = sim.NewKernel(1)
	schedule(k)
	st := newStepTracer()
	st.drive(k, horizon)
	k.ScheduleAt(horizon, "deliver", func() { ran = append(ran, "late") })
	if err := k.Run(horizon); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ","); got != want {
		t.Errorf("traced loop ran %s, Kernel.Run ran %s", got, want)
	}
	if n := statFor(st.kinds, "netsim.deliver").n; n != 2 {
		t.Errorf("%d deliver steps recorded, want 2", n)
	}
}
