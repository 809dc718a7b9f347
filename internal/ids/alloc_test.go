package ids

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"xlf/internal/netsim"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// homeTraffic returns n records of steady home chatter that no default
// detector alerts on: 20 devices, picked at random, each talking to its own
// cloud endpoint, in time order with exponentially distributed gaps, so no
// pair looks machine-periodic to the beacon detector.
func homeTraffic(n int) []netsim.PacketRecord {
	rng := rand.New(rand.NewSource(1))
	recs := make([]netsim.PacketRecord, n)
	var now time.Duration
	for i := range recs {
		dev := rng.Intn(20)
		now += time.Millisecond + time.Duration(rng.ExpFloat64()*float64(50*time.Millisecond))
		recs[i] = netsim.PacketRecord{
			Time: now,
			Src:  netsim.Addr(fmt.Sprintf("lan:dev-%d", dev)), Dst: netsim.Addr(fmt.Sprintf("wan:cloud-%d", dev)),
			SrcPort: 7443, DstPort: 443, Proto: "XLF-LWC", Size: 200, Encrypted: true,
		}
	}
	return recs
}

// detectorCases are the detectors the allocation guard and the benchmark
// drive, each with DefaultPipeline's thresholds.
func detectorCases() []struct {
	name string
	d    processor
} {
	return []struct {
		name string
		d    processor
	}{
		{"scan", NewScanDetector(10*time.Second, 12)},
		{"flood", NewFloodDetector(time.Second, 150, 3)},
		{"beacon", NewBeaconDetector(8, 0.12)},
		{"bruteforce", NewBruteForceDetector(30*time.Second, 8)},
		{"pipeline", DefaultPipeline()},
	}
}

// TestDetectorProcessAllocFree pins steady-state Process on non-alerting
// records to zero allocations for every default detector and for the
// whole pipeline: every IDS tap runs it on every packet.
func TestDetectorProcessAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	recs := homeTraffic(8000)
	for _, c := range detectorCases() {
		// Warm up: every source's window and every destination's bin
		// has reached its steady size.
		for _, r := range recs[:4000] {
			if a := c.d.Process(r); len(a) != 0 {
				t.Fatalf("%s: benign chatter raised %v", c.name, a)
			}
		}
		i := 4000
		if n := testing.AllocsPerRun(3000, func() {
			if a := c.d.Process(recs[i]); len(a) != 0 {
				t.Fatalf("%s: benign chatter raised %v", c.name, a)
			}
			i++
		}); n != 0 {
			t.Errorf("%s Process: %v allocs per record, want 0", c.name, n)
		}
	}
}

// BenchmarkDetectorProcess measures one record through each default
// detector and through the whole pipeline, on steady non-alerting home
// chatter.
func BenchmarkDetectorProcess(b *testing.B) {
	recs := homeTraffic(1 << 14)
	span := recs[len(recs)-1].Time + time.Second
	for _, c := range detectorCases() {
		// seq carries on across the benchmark's rounds, so time never
		// runs backwards for the detector they share.
		seq := 0
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := recs[seq%len(recs)]
				r.Time += time.Duration(seq/len(recs)) * span
				seq++
				sinkAlerts = c.d.Process(r)
			}
		})
	}
}

// sinkAlerts keeps BenchmarkDetectorProcess's calls from being optimised
// away.
var sinkAlerts []Alert
