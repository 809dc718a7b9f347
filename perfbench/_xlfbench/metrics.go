package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"xlf/internal/exp"
)

// metricDef declares one printed metric. BENCHMARK.json declares the same
// names and units; the tests hold the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run prints.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"sim_events_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

// perLayer is what a traced run prints, on every workload; a layer that
// does no work on a workload reads 0 there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"device.attest_steps", "count"},
		{"device.attest_busy_s", "s"},
		{"device.attest_ns_p50", "ns"},
		{"device.attest_ns_p99", "ns"},
		{"device.verify_ns", "ns"},
		{"testbed.keepalive_steps", "count"},
		{"testbed.keepalive_busy_s", "s"},
		{"channel.sealed", "count"},
		{"testbed.user_event_steps", "count"},
		{"testbed.user_event_busy_s", "s"},
		{"ids.records", "count"},
		{"ids.busy_s", "s"},
		{"ids.ns_per_record", "ns"},
		{"ids.alerts", "count"},
		{"dpi.scans", "count"},
		{"dpi.bytes_scanned", "bytes"},
		{"dpi.busy_s", "s"},
		{"dpi.detections", "count"},
		{"netsim.delivered", "count"},
		{"netsim.dropped", "count"},
		{"netsim.bytes", "bytes"},
		{"netsim.deliver_steps", "count"},
		{"netsim.deliver_busy_s", "s"},
		{"netsim.deliver_ns_p50", "ns"},
		{"netsim.deliver_ns_p99", "ns"},
		{"netsim.gateway_forwarded", "count"},
		{"netsim.gateway_blocked", "count"},
		{"netsim.capture_records", "count"},
		{"netsim.forward_hook_calls", "count"},
		{"netsim.forward_hook_busy_s", "s"},
		{"core.ingested", "count"},
		{"core.dropped", "count"},
		{"core.alerts", "count"},
		{"core.contained", "count"},
		{"core.alert_ratio", "ratio"},
		{"core.nac_denials", "count"},
		{"core.nac_busy_s", "s"},
		{"core.deny_signal_busy_s", "s"},
		{"core.deny_signal_ns_p50", "ns"},
		{"core.deny_signal_ns_p99", "ns"},
		{"core.evidence_signals", "count"},
		{"service.event_monitor_calls", "count"},
		{"service.event_monitor_busy_s", "s"},
		{"service.command_monitor_calls", "count"},
		{"service.command_monitor_busy_s", "s"},
		{"sim.events", "count"},
		{"sim.step_ns_p50", "ns"},
		{"sim.step_ns_p99", "ns"},
		{"sim.self_s", "s"},
		{"testbed.city_report_steps", "count"},
		{"testbed.city_report_busy_s", "s"},
		{"obs.telemetry_steps", "count"},
		{"obs.telemetry_busy_s", "s"},
		{"obs.windows", "count"},
		{"obs.dumps", "count"},
		{"attack.steps", "count"},
		{"attack.busy_s", "s"},
	}
	for _, e := range exp.Registry() {
		defs = append(defs, metricDef{"exp." + e.ID + ".wall_s", "s"}, metricDef{"exp." + e.ID + ".alloc_mb", "MB"})
	}
	return append(defs, metricDef{"trace.wall_s", "s"}, metricDef{"trace.overhead_ratio", "ratio"})
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value float64
	unit  string
	n     uint64
}

// metricSet collects the per-layer metrics of one traced run.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string, n uint64) {
	m[name] = metric{value: v, unit: unit, n: n}
}

func (m metricSet) count(name string, v uint64) { m.set(name, float64(v), "count", 1) }

func (m metricSet) seconds(name string, d time.Duration, n uint64) { m.set(name, d.Seconds(), "s", n) }

func (m metricSet) megabytes(name string, b int64) { m.set(name, float64(b)/1e6, "MB", 1) }

// percentiles sets name_p50 and name_p99 from per-span durations.
func (m metricSet) percentiles(name string, ns []int64) {
	n := uint64(len(ns))
	m.set(name+"_p50", float64(quantile(ns, 0.50)), "ns", n)
	m.set(name+"_p99", float64(quantile(ns, 0.99)), "ns", n)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty). It
// sorts xs in place.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
