// Package ids implements XLF's malicious-activity identification (§IV-B3):
// streaming detectors over packet metadata for the activities the Nokia
// threat report attributes to IoT botnets — scanning, DDoS floods, C&C
// beaconing — plus telnet credential brute-forcing, the Mirai recruitment
// vector. Detectors see only observer-legal metadata (netsim.PacketRecord).
package ids

import (
	"fmt"
	"math"
	"sort"
	"time"

	"xlf/internal/netsim"
)

// Alert is one detection.
type Alert struct {
	Time     time.Duration
	Detector string
	Src      netsim.Addr
	Dst      netsim.Addr
	Detail   string
	// Confidence in (0,1].
	Confidence float64
}

func (a Alert) String() string {
	return fmt.Sprintf("[%s] %s src=%s dst=%s conf=%.2f %s", a.Time, a.Detector, a.Src, a.Dst, a.Confidence, a.Detail)
}

// Detector consumes packet records and emits alerts.
type Detector interface {
	// Name identifies the detector in alerts and reports.
	Name() string
	// Process consumes one record and returns any alerts it triggers.
	Process(rec netsim.PacketRecord) []Alert
}

// ScanDetector flags sources touching many distinct (dst, port) pairs in a
// sliding window — the fan-out signature of Mirai's random scanning.
type ScanDetector struct {
	// Window is the observation window.
	Window time.Duration
	// FanOut is the distinct-target threshold.
	FanOut int

	touched map[netsim.Addr]*scanWindow
	alerted map[netsim.Addr]time.Duration
}

// scanTarget is one (destination, port) pair a source touched.
type scanTarget struct {
	dst  netsim.Addr
	port int
}

type targetSeen struct {
	t      time.Duration
	target scanTarget
}

// scanWindow is one source's sliding window: its touches in arrival order
// from head on, and a multiset counting the live touches of each distinct
// target, so the distinct count is the multiset's size.
type scanWindow struct {
	seen   []targetSeen
	head   int
	counts map[scanTarget]int
}

// push appends a touch to the window.
func (w *scanWindow) push(s targetSeen) {
	w.seen = append(w.seen, s)
	w.counts[s.target]++
}

// evictBefore drops touches from the front while they are older than cut.
// Like the arrival-order slice it replaces, it stops at the first touch
// that is not, even if an out-of-order touch behind it is.
func (w *scanWindow) evictBefore(cut time.Duration) {
	for w.head < len(w.seen) && w.seen[w.head].t < cut {
		tgt := w.seen[w.head].target
		if w.counts[tgt]--; w.counts[tgt] == 0 {
			delete(w.counts, tgt)
		}
		w.head++
	}
	// Compact once the dead prefix is half the slice: amortised O(1) per
	// touch, and the backing array is reused instead of regrown.
	if w.head > 0 && 2*w.head >= len(w.seen) {
		n := copy(w.seen, w.seen[w.head:])
		clear(w.seen[n:])
		w.seen = w.seen[:n]
		w.head = 0
	}
}

var _ Detector = (*ScanDetector)(nil)

// NewScanDetector returns a detector with the given window and fan-out
// threshold.
func NewScanDetector(window time.Duration, fanOut int) *ScanDetector {
	return &ScanDetector{
		Window:  window,
		FanOut:  fanOut,
		touched: make(map[netsim.Addr]*scanWindow),
		alerted: make(map[netsim.Addr]time.Duration),
	}
}

// Name implements Detector.
func (d *ScanDetector) Name() string { return "scan" }

// Process implements Detector.
func (d *ScanDetector) Process(rec netsim.PacketRecord) []Alert {
	w := d.touched[rec.Src]
	if w == nil {
		w = &scanWindow{counts: make(map[scanTarget]int)}
		d.touched[rec.Src] = w
	}
	w.push(targetSeen{t: rec.Time, target: scanTarget{dst: rec.Dst, port: rec.DstPort}})
	w.evictBefore(rec.Time - d.Window)

	distinct := len(w.counts)
	if distinct < d.FanOut {
		return nil
	}
	// Rate-limit: one alert per source per window.
	if last, ok := d.alerted[rec.Src]; ok && rec.Time-last < d.Window {
		return nil
	}
	d.alerted[rec.Src] = rec.Time
	conf := math.Min(1, float64(distinct)/float64(2*d.FanOut))
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d distinct targets in %s", distinct, d.Window),
		Confidence: math.Max(conf, 0.5),
	}}
}

// FloodDetector flags destinations receiving traffic far above baseline —
// volumetric DDoS. It tracks per-destination packet rates in fixed bins.
type FloodDetector struct {
	// Bin is the rate-measurement bin.
	Bin time.Duration
	// PacketsPerBin is the alert threshold.
	PacketsPerBin int
	// MinSources additionally requires this many distinct sources
	// (distributed-ness); 1 disables the requirement.
	MinSources int

	bins    map[netsim.Addr]*floodBin
	alerted map[netsim.Addr]time.Duration
}

type floodBin struct {
	start   time.Duration
	count   int
	sources map[netsim.Addr]struct{}
}

var _ Detector = (*FloodDetector)(nil)

// NewFloodDetector returns a volumetric detector.
func NewFloodDetector(bin time.Duration, packetsPerBin, minSources int) *FloodDetector {
	return &FloodDetector{
		Bin: bin, PacketsPerBin: packetsPerBin, MinSources: minSources,
		bins:    make(map[netsim.Addr]*floodBin),
		alerted: make(map[netsim.Addr]time.Duration),
	}
}

// Name implements Detector.
func (d *FloodDetector) Name() string { return "ddos-flood" }

// Process implements Detector.
func (d *FloodDetector) Process(rec netsim.PacketRecord) []Alert {
	b := d.bins[rec.Dst]
	switch {
	case b == nil:
		b = &floodBin{start: rec.Time, sources: make(map[netsim.Addr]struct{})}
		d.bins[rec.Dst] = b
	case rec.Time-b.start >= d.Bin:
		// A new bin reuses the destination's bin and source set.
		b.start, b.count = rec.Time, 0
		clear(b.sources)
	}
	b.count++
	b.sources[rec.Src] = struct{}{}
	if b.count < d.PacketsPerBin || len(b.sources) < d.MinSources {
		return nil
	}
	if last, ok := d.alerted[rec.Dst]; ok && rec.Time-last < d.Bin {
		return nil
	}
	d.alerted[rec.Dst] = rec.Time
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d pkts from %d sources within %s", b.count, len(b.sources), d.Bin),
		Confidence: math.Min(1, float64(b.count)/float64(2*d.PacketsPerBin)+0.5),
	}}
}

// BeaconDetector flags (src, dst) pairs with highly regular inter-arrival
// times over many packets — C&C keep-alive beaconing.
type BeaconDetector struct {
	// MinSamples is how many intervals must be seen before judging.
	MinSamples int
	// MaxCV is the maximum coefficient of variation (stddev/mean) for the
	// intervals to count as machine-regular.
	MaxCV float64

	last      map[beaconKey]time.Duration
	intervals map[beaconKey][]float64
	alerted   map[beaconKey]bool
}

type beaconKey struct {
	src, dst netsim.Addr
}

var _ Detector = (*BeaconDetector)(nil)

// NewBeaconDetector returns a beaconing detector.
func NewBeaconDetector(minSamples int, maxCV float64) *BeaconDetector {
	return &BeaconDetector{
		MinSamples: minSamples, MaxCV: maxCV,
		last:      make(map[beaconKey]time.Duration),
		intervals: make(map[beaconKey][]float64),
		alerted:   make(map[beaconKey]bool),
	}
}

// Name implements Detector.
func (d *BeaconDetector) Name() string { return "cc-beacon" }

// Process implements Detector.
func (d *BeaconDetector) Process(rec netsim.PacketRecord) []Alert {
	k := beaconKey{rec.Src, rec.Dst}
	iv := d.intervals[k]
	if prev, ok := d.last[k]; ok {
		iv = append(iv, (rec.Time - prev).Seconds())
		if len(iv) > 4*d.MinSamples {
			// Keep the newest 2*MinSamples in place, so the slice's
			// backing array is reused rather than regrown.
			iv = append(iv[:0], iv[len(iv)-2*d.MinSamples:]...)
		}
		d.intervals[k] = iv
	}
	d.last[k] = rec.Time

	if len(iv) < d.MinSamples || d.alerted[k] {
		return nil
	}
	mean, sd := meanStd(iv)
	if mean <= 0 {
		return nil
	}
	cv := sd / mean
	if cv > d.MaxCV {
		return nil
	}
	d.alerted[k] = true
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("period=%.2fs cv=%.3f over %d intervals", mean, cv, len(iv)),
		Confidence: math.Min(1, 1-cv/d.MaxCV+0.5),
	}}
}

func meanStd(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

// BruteForceDetector flags repeated small packets to authentication ports
// (telnet/ssh/http-auth) from one source — credential stuffing.
type BruteForceDetector struct {
	Window   time.Duration
	Attempts int
	// Ports lists authentication service ports to watch.
	Ports map[int]bool

	seen    map[beaconKey][]time.Duration
	alerted map[beaconKey]time.Duration
}

var _ Detector = (*BruteForceDetector)(nil)

// NewBruteForceDetector returns a credential-stuffing detector watching
// telnet (23), ssh (22) and http (80) by default.
func NewBruteForceDetector(window time.Duration, attempts int) *BruteForceDetector {
	return &BruteForceDetector{
		Window: window, Attempts: attempts,
		Ports:   map[int]bool{22: true, 23: true, 80: true},
		seen:    make(map[beaconKey][]time.Duration),
		alerted: make(map[beaconKey]time.Duration),
	}
}

// Name implements Detector.
func (d *BruteForceDetector) Name() string { return "bruteforce" }

// Process implements Detector.
func (d *BruteForceDetector) Process(rec netsim.PacketRecord) []Alert {
	if !d.Ports[rec.DstPort] {
		return nil
	}
	k := beaconKey{rec.Src, rec.Dst}
	hist := append(d.seen[k], rec.Time)
	cut := 0
	for cut < len(hist) && hist[cut] < rec.Time-d.Window {
		cut++
	}
	hist = hist[cut:]
	d.seen[k] = hist
	if len(hist) < d.Attempts {
		return nil
	}
	if last, ok := d.alerted[k]; ok && rec.Time-last < d.Window {
		return nil
	}
	d.alerted[k] = rec.Time
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d auth attempts to port %d within %s", len(hist), rec.DstPort, d.Window),
		Confidence: math.Min(1, float64(len(hist))/float64(2*d.Attempts)+0.4),
	}}
}

// Pipeline fans records out to several detectors and collects alerts.
type Pipeline struct {
	detectors []Detector
	alerts    []Alert
}

// NewPipeline composes detectors.
func NewPipeline(ds ...Detector) *Pipeline {
	return &Pipeline{detectors: ds}
}

// DefaultPipeline returns the standard XLF network-layer detector set
// tuned for the testbed's time scales.
func DefaultPipeline() *Pipeline {
	return NewPipeline(
		NewScanDetector(10*time.Second, 12),
		NewFloodDetector(time.Second, 150, 3),
		NewBeaconDetector(8, 0.12),
		NewBruteForceDetector(30*time.Second, 8),
	)
}

// Process feeds one record through all detectors.
func (p *Pipeline) Process(rec netsim.PacketRecord) []Alert {
	var out []Alert
	for _, d := range p.detectors {
		out = append(out, d.Process(rec)...)
	}
	p.alerts = append(p.alerts, out...)
	return out
}

// ProcessAll feeds a capture through the pipeline in time order.
func (p *Pipeline) ProcessAll(recs []netsim.PacketRecord) []Alert {
	sorted := append([]netsim.PacketRecord(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	var out []Alert
	for _, r := range sorted {
		out = append(out, p.Process(r)...)
	}
	return out
}

// Alerts returns every alert seen so far (a copy).
func (p *Pipeline) Alerts() []Alert { return append([]Alert(nil), p.alerts...) }
