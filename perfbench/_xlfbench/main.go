// Command xlfbench is the XLF benchmark. Each workload is a fixed schedule
// in simulated time (an open loop: a slow layer cannot thin the offered
// load), run as a batch to its horizon on one simulation thread, so the
// end-to-end numbers are host work per simulated schedule.
//
//	xlfbench --workload nac-flood --seed 3 --seconds 20 --trace 0
//
// It repeats build-and-run until --seconds have passed and reports the
// median of every metric. With --trace 1 it alternates untraced and traced
// runs and prints the per-layer metrics of the traced ones. Every run's
// simulated outcome is checked; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"syscall"
	"text/tabwriter"
	"time"
	"unsafe"
)

func main() {
	workloadName := flag.String("workload", "", "workload: home-3day, nac-flood, city-200k or paper-suite")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "host seconds to keep repeating runs")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of traced runs")
	root := flag.String("root", ".", "repository root, for bench/seed")
	flag.Parse()

	w, ok := lookupWorkload(*workloadName)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "xlfbench: bad arguments: workload %q seconds %d trace %d\n", *workloadName, *seconds, *trace)
		os.Exit(2)
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xlfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// minRuns is the fewest runs a median is taken over, even when they
// overrun the time budget.
const minRuns = 3

// sample is one build-and-run of a workload. run is the CPU time of the
// simulation thread and wall the host wall time of the same interval.
type sample struct {
	setup, run, wall, cpu time.Duration
	alloc, live           uint64
	events                uint64
	digest                string
	layers                metricSet // traced runs only
}

// runOnce builds the workload from seed, runs it to its horizon and checks
// the outcome. A failed check is returned as bad, not as err.
func runOnce(w workload, seed int64, root string, traced bool) (s sample, bad error, err error) {
	// Set-up and simulation run on this goroutine alone; pinning it to its
	// OS thread lets the thread's CPU clock time them.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	var ms runtime.MemStats
	t0 := threadCPU()
	inst, err := w.build(seed, root)
	s.setup = threadCPU() - t0
	if err != nil {
		return s, nil, fmt.Errorf("%s: build: %w", w.name, err)
	}
	var st *stepTracer
	if traced {
		st = newStepTracer()
	}
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, processCPU()
	t1, wall0 := threadCPU(), time.Now()
	err = inst.run(st)
	s.run, s.wall = threadCPU()-t1, time.Since(wall0)
	s.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc - alloc0
	if err != nil {
		return s, nil, fmt.Errorf("%s: run: %w", w.name, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.live = ms.HeapAlloc

	s.events = inst.events()
	s.digest = digest(inst.outcome())
	bad = inst.check()
	if bad == nil && seed == defaultSeed && s.digest != pinnedDigests[w.name] {
		bad = fmt.Errorf("outcome digest %s, pinned %s", s.digest, pinnedDigests[w.name])
	}
	if traced {
		s.layers = metricSet{}
		st.layers(s.layers)
		inst.layers(s.layers)
		s.layers.seconds("trace.wall_s", s.wall, 1)
		s.layers.count("sim.events", s.events)
	}
	return s, bad, nil
}

// processCPU returns the process's user+sys time, all threads included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the CPU time the calling OS thread has used, in
// nanoseconds. Time the host steals from the VM is not counted.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// result is what one benchmark invocation prints.
type result struct {
	workload          string
	seed              int64
	attempted, failed int
	runs, tracedRuns  int
	wall              float64 // median wall seconds of the untraced runs
	metrics           metricSet
}

// measure repeats runs until budget has passed. Traced invocations
// alternate untraced and traced runs, so the tracing overhead is measured
// under the same conditions. Every run of one seed must reach the same
// outcome, traced or not.
func measure(w workload, seed int64, budget time.Duration, trace bool, root string) (*result, error) {
	res := &result{workload: w.name, seed: seed}
	var plain, traced []sample
	want := ""
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		s, bad, err := runOnce(w, seed, root, trace && i%2 == 1)
		took := time.Since(t0)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if want == "" {
			want = s.digest
		}
		if bad == nil && s.digest != want {
			bad = fmt.Errorf("outcome digest %s differs from the first run's %s", s.digest, want)
		}
		if bad != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "xlfbench: %s seed %d run %d failed its check: %v\n", w.name, seed, i+1, bad)
		}
		if s.layers != nil {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
		// Stop before a run that would likely overrun the budget, once
		// there are enough runs for a median.
		enough := i+1 >= minRuns && (!trace || len(traced) > 0)
		if enough && time.Since(start)+took > budget {
			break
		}
	}
	res.runs, res.tracedRuns = len(plain), len(traced)
	res.wall = medianOf(plain, func(s sample) float64 { return s.wall.Seconds() })
	if trace {
		res.metrics = layerMedians(plain, traced)
		return res, nil
	}
	setups, err := setupSamples(w, seed, root, plain)
	if err != nil {
		return nil, err
	}
	res.metrics = endToEndMedians(plain, setups)
	return res, nil
}

// setupSamples returns the per-build set-up time of every run, topped up
// with extra set-ups until there are enough for a steady median:
// workloads with long runs fit few runs in a budget. A set-up too short
// to time alone against the clock's own cost is timed in batches, sized
// from its single-build time to take up to a millisecond, and divided by
// the batch size.
func setupSamples(w workload, seed int64, root string, runs []sample) ([]float64, error) {
	var out []float64
	var total time.Duration
	for _, s := range runs {
		out = append(out, s.setup.Seconds())
		total += s.setup
	}
	batch := 1
	if one := time.Duration(median(out) * float64(time.Second)); one < time.Millisecond {
		batch = int(time.Millisecond/max(one, time.Microsecond/10)) + 1
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for len(out) < 9 || (total < 200*time.Millisecond && len(out) < 1000) {
		runtime.GC()
		t0 := threadCPU()
		for i := 0; i < batch; i++ {
			if _, err := w.build(seed, root); err != nil {
				return nil, fmt.Errorf("%s: build: %w", w.name, err)
			}
		}
		d := threadCPU() - t0
		out = append(out, d.Seconds()/float64(batch))
		total += d
	}
	return out, nil
}

// medianOf returns the median of f over runs.
func medianOf(runs []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(runs))
	for i, s := range runs {
		xs[i] = f(s)
	}
	return median(xs)
}

func endToEndMedians(runs []sample, setups []float64) metricSet {
	col := func(f func(sample) float64) float64 { return medianOf(runs, f) }
	n := uint64(len(runs))
	m := metricSet{}
	m.set("setup_s", median(setups), "s", uint64(len(setups)))
	m.set("run_s", col(func(s sample) float64 { return s.run.Seconds() }), "s", n)
	m.set("cpu_s", col(func(s sample) float64 { return s.cpu.Seconds() }), "s", n)
	m.set("sim_events_per_s", col(func(s sample) float64 { return float64(s.events) / s.run.Seconds() }), "1/s", n)
	m.set("alloc_mb", col(func(s sample) float64 { return float64(s.alloc) / 1e6 }), "MB", n)
	m.set("live_heap_mb", col(func(s sample) float64 { return float64(s.live) / 1e6 }), "MB", n)
	return m
}

// layerMedians takes each per-layer metric's median over the traced runs
// and fills in the declared metrics a workload does not exercise as 0.
func layerMedians(plain, traced []sample) metricSet {
	m := metricSet{}
	for _, d := range perLayer() {
		xs := make([]float64, 0, len(traced))
		var n uint64
		for _, s := range traced {
			if v, ok := s.layers[d.name]; ok {
				xs = append(xs, v.value)
				n = v.n
			}
		}
		m.set(d.name, median(xs), d.unit, n)
	}
	runS := func(s sample) float64 { return s.run.Seconds() }
	m.set("trace.overhead_ratio", medianOf(traced, runS)/medianOf(plain, runS), "ratio", uint64(len(traced)))
	return m
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes a readable table with sample counts, then the JSON result
// as the last line.
func (r *result) print(f io.Writer) {
	fmt.Fprintf(f, "workload %s seed %d: %d untraced and %d traced runs, %d of %d failed, GOMAXPROCS %d\n",
		r.workload, r.seed, r.runs, r.tracedRuns, r.failed, r.attempted, runtime.GOMAXPROCS(0))
	fmt.Fprintf(f, "median wall time of the untraced runs: %.4g s\n", r.wall)
	tw := tabwriter.NewWriter(f, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples\t")
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	names := make([]string, 0, len(r.metrics))
	for _, d := range slices.Concat(endToEnd, perLayer()) {
		if _, ok := r.metrics[d.name]; ok {
			names = append(names, d.name)
		}
	}
	for _, name := range names {
		v := r.metrics[name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\t\n", name, v.value, v.unit, v.n)
		out.Metrics[name] = jsonMetric{Value: v.value, Unit: v.unit}
	}
	tw.Flush()
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xlfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(f, "%s\n", line)
}
