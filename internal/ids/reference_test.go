package ids

import (
	"fmt"
	"math"
	"time"

	"xlf/internal/netsim"
)

// refScanDetector, refFloodDetector and refBeaconDetector are
// ScanDetector, FloodDetector and BeaconDetector as they were before the
// allocation-free rewrite, kept verbatim (only renamed) as the
// differential oracle for TestDetectorsMatchReference and
// FuzzPipelineMatchesReference. The scan detector rebuilds the distinct
// target set from the whole window on every record; the flood detector
// allocates a fresh bin and source set whenever a bin rolls over; the
// beacon detector trims its interval history by re-slicing, so appends
// regrow it.

// refScanDetector flags sources touching many distinct (dst, port) pairs in a
// sliding window — the fan-out signature of Mirai's random scanning.
type refScanDetector struct {
	// Window is the observation window.
	Window time.Duration
	// FanOut is the distinct-target threshold.
	FanOut int

	touched map[netsim.Addr][]refTargetSeen
	alerted map[netsim.Addr]time.Duration
}

type refTargetSeen struct {
	t      time.Duration
	target string
}

// newRefScanDetector returns a detector with the given window and fan-out
// threshold.
func newRefScanDetector(window time.Duration, fanOut int) *refScanDetector {
	return &refScanDetector{
		Window:  window,
		FanOut:  fanOut,
		touched: make(map[netsim.Addr][]refTargetSeen),
		alerted: make(map[netsim.Addr]time.Duration),
	}
}

// Name implements Detector.
func (d *refScanDetector) Name() string { return "scan" }

// Process implements Detector.
func (d *refScanDetector) Process(rec netsim.PacketRecord) []Alert {
	key := fmt.Sprintf("%s:%d", rec.Dst, rec.DstPort)
	hist := append(d.touched[rec.Src], refTargetSeen{t: rec.Time, target: key})
	// Evict outside the window.
	cut := 0
	for cut < len(hist) && hist[cut].t < rec.Time-d.Window {
		cut++
	}
	hist = hist[cut:]
	d.touched[rec.Src] = hist

	distinct := make(map[string]struct{}, len(hist))
	for _, h := range hist {
		distinct[h.target] = struct{}{}
	}
	if len(distinct) < d.FanOut {
		return nil
	}
	// Rate-limit: one alert per source per window.
	if last, ok := d.alerted[rec.Src]; ok && rec.Time-last < d.Window {
		return nil
	}
	d.alerted[rec.Src] = rec.Time
	conf := math.Min(1, float64(len(distinct))/float64(2*d.FanOut))
	return []Alert{{
		Time: rec.Time, Detector: d.Name(), Src: rec.Src, Dst: rec.Dst,
		Detail:     fmt.Sprintf("%d distinct targets in %s", len(distinct), d.Window),
		Confidence: math.Max(conf, 0.5),
	}}
}

// refFloodDetector flags destinations receiving traffic far above baseline —
// volumetric DDoS. It tracks per-destination packet rates in fixed bins.
type refFloodDetector struct {
	// Bin is the rate-measurement bin.
	Bin time.Duration
	// PacketsPerBin is the alert threshold.
	PacketsPerBin int
	// MinSources additionally requires this many distinct sources
	// (distributed-ness); 1 disables the requirement.
	MinSources int

	bins    map[netsim.Addr]*refFloodBin
	alerted map[netsim.Addr]time.Duration
}

type refFloodBin struct {
	start   time.Duration
	count   int
	sources map[netsim.Addr]struct{}
}

// newRefFloodDetector returns a volumetric detector.
func newRefFloodDetector(bin time.Duration, packetsPerBin, minSources int) *refFloodDetector {
	return &refFloodDetector{
		Bin: bin, PacketsPerBin: packetsPerBin, MinSources: minSources,
		bins:    make(map[netsim.Addr]*refFloodBin),
		alerted: make(map[netsim.Addr]time.Duration),
	}
}

// Name implements Detector.
func (d *refFloodDetector) Name() string { return "ddos-flood" }

// Process implements Detector.
func (d *refFloodDetector) Process(rec netsim.PacketRecord) []Alert {
	b := d.bins[rec.Dst]
	if b == nil || rec.Time-b.start >= d.Bin {
		b = &refFloodBin{start: rec.Time, sources: make(map[netsim.Addr]struct{})}
		d.bins[rec.Dst] = b
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

// refBeaconDetector flags (src, dst) pairs with highly regular inter-arrival
// times over many packets — C&C keep-alive beaconing.
type refBeaconDetector struct {
	// MinSamples is how many intervals must be seen before judging.
	MinSamples int
	// MaxCV is the maximum coefficient of variation (stddev/mean) for the
	// intervals to count as machine-regular.
	MaxCV float64

	last      map[beaconKey]time.Duration
	intervals map[beaconKey][]float64
	alerted   map[beaconKey]bool
}

// newRefBeaconDetector returns a beaconing detector.
func newRefBeaconDetector(minSamples int, maxCV float64) *refBeaconDetector {
	return &refBeaconDetector{
		MinSamples: minSamples, MaxCV: maxCV,
		last:      make(map[beaconKey]time.Duration),
		intervals: make(map[beaconKey][]float64),
		alerted:   make(map[beaconKey]bool),
	}
}

// Name implements Detector.
func (d *refBeaconDetector) Name() string { return "cc-beacon" }

// Process implements Detector.
func (d *refBeaconDetector) Process(rec netsim.PacketRecord) []Alert {
	k := beaconKey{rec.Src, rec.Dst}
	if prev, ok := d.last[k]; ok {
		d.intervals[k] = append(d.intervals[k], (rec.Time - prev).Seconds())
		if len(d.intervals[k]) > 4*d.MinSamples {
			d.intervals[k] = d.intervals[k][len(d.intervals[k])-2*d.MinSamples:]
		}
	}
	d.last[k] = rec.Time

	iv := d.intervals[k]
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
