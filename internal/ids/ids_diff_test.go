package ids

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"xlf/internal/netsim"
)

// The allocation-free ScanDetector, FloodDetector and BeaconDetector must
// be observationally identical to the ones they replaced
// (refScanDetector, refFloodDetector, refBeaconDetector): the same alerts after every record, field by field,
// the confidence by its bits. The tests here run generated record streams
// and decoded byte programs through both.

// alertDiff describes how got differs from want, or returns "".
func alertDiff(got, want Alert) string {
	switch {
	case got.Time != want.Time:
		return fmt.Sprintf("Time %v, want %v", got.Time, want.Time)
	case got.Detector != want.Detector:
		return fmt.Sprintf("Detector %q, want %q", got.Detector, want.Detector)
	case got.Src != want.Src:
		return fmt.Sprintf("Src %q, want %q", got.Src, want.Src)
	case got.Dst != want.Dst:
		return fmt.Sprintf("Dst %q, want %q", got.Dst, want.Dst)
	case got.Detail != want.Detail:
		return fmt.Sprintf("Detail %q, want %q", got.Detail, want.Detail)
	case math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence):
		return fmt.Sprintf("Confidence %v (%#x), want %v (%#x)", got.Confidence,
			math.Float64bits(got.Confidence), want.Confidence, math.Float64bits(want.Confidence))
	}
	return ""
}

// processor is what a detector and a pipeline have in common.
type processor interface {
	Process(netsim.PacketRecord) []Alert
}

// diffParams are the thresholds one differential run uses.
type diffParams struct {
	window, bin    time.Duration
	fanOut, perBin int
	minSources     int
	minSamples     int
	maxCV          float64
}

// defaultParams are DefaultPipeline's thresholds.
var defaultParams = diffParams{window: 10 * time.Second, bin: time.Second, fanOut: 12, perBin: 150, minSources: 3, minSamples: 8, maxCV: 0.12}

// diffRecords feeds recs one by one to each rewritten detector and its
// reference, and to a pipeline of each, and fails on the first divergence.
// It returns how many alerts the reference pipeline raised.
func diffRecords(t testing.TB, p diffParams, recs []netsim.PacketRecord) int {
	t.Helper()
	pairs := []struct {
		name     string
		got, ref processor
	}{
		{"scan", NewScanDetector(p.window, p.fanOut), newRefScanDetector(p.window, p.fanOut)},
		{"flood", NewFloodDetector(p.bin, p.perBin, p.minSources), newRefFloodDetector(p.bin, p.perBin, p.minSources)},
		{"beacon", NewBeaconDetector(p.minSamples, p.maxCV), newRefBeaconDetector(p.minSamples, p.maxCV)},
		{"pipeline",
			NewPipeline(NewScanDetector(p.window, p.fanOut), NewFloodDetector(p.bin, p.perBin, p.minSources),
				NewBeaconDetector(p.minSamples, p.maxCV), NewBruteForceDetector(30*time.Second, 8)),
			NewPipeline(newRefScanDetector(p.window, p.fanOut), newRefFloodDetector(p.bin, p.perBin, p.minSources),
				newRefBeaconDetector(p.minSamples, p.maxCV), NewBruteForceDetector(30*time.Second, 8))},
	}
	alerts := 0
	for _, pr := range pairs {
		for i, r := range recs {
			got, want := pr.got.Process(r), pr.ref.Process(r)
			if len(got) != len(want) {
				t.Fatalf("%s record %d (%+v): %d alerts, want %d: %v vs %v", pr.name, i, r, len(got), len(want), got, want)
			}
			for j := range got {
				if d := alertDiff(got[j], want[j]); d != "" {
					t.Fatalf("%s record %d alert %d: %s", pr.name, i, j, d)
				}
			}
			if pr.name == "pipeline" {
				alerts += len(want)
			}
		}
	}
	return alerts
}

// decodeRecords turns a byte program into a record stream, three bytes
// per record. The first byte's top two bits choose how time moves: forward
// by its low six bits in milliseconds (0 repeats the timestamp), backward
// by them (out of order), forward by exactly the window or the bin (a
// record on the eviction or roll-over edge), or a repeat of the previous
// record. The second byte picks one of 16 sources and the third one of 32
// (dst, port) targets; some addresses contain ':' so the old string keys'
// separator is exercised.
func decodeRecords(data []byte, p diffParams) []netsim.PacketRecord {
	srcs := make([]netsim.Addr, 16)
	for i := range srcs {
		srcs[i] = netsim.Addr(fmt.Sprintf("lan:dev-%d", i))
	}
	dsts := []netsim.Addr{"wan:a", "wan:a:1", "wan:b", "wan:b:2", "lan:gw", "wan:victim", "wan:c", "wan:d"}
	ports := []int{23, 1, 12, 443}
	var recs []netsim.PacketRecord
	var now time.Duration
	for len(data) >= 3 {
		op, sb, tb := data[0], data[1], data[2]
		data = data[3:]
		mag := time.Duration(op&0x3f) * time.Millisecond
		switch op >> 6 {
		case 0:
			now += mag
		case 1:
			now -= mag
		case 2:
			if op&1 == 0 {
				now += p.window
			} else {
				now += p.bin
			}
		case 3:
			if len(recs) > 0 {
				recs = append(recs, recs[len(recs)-1])
				continue
			}
		}
		recs = append(recs, netsim.PacketRecord{
			Time: now, Src: srcs[int(sb)%len(srcs)],
			Dst: dsts[int(tb)%len(dsts)], DstPort: ports[int(tb)/len(dsts)%len(ports)], Size: 60,
		})
	}
	return recs
}

// TestDetectorsMatchReference runs directed and random streams through
// the rewritten detectors and the reference: floods from many sources,
// many sources each just under the fan-out threshold, records exactly on
// window and bin edges, duplicates, out-of-order timestamps and random
// byte programs, at the default and at small thresholds.
func TestDetectorsMatchReference(t *testing.T) {
	small := diffParams{window: 200 * time.Millisecond, bin: 100 * time.Millisecond, fanOut: 3, perBin: 4, minSources: 2, minSamples: 3, maxCV: 0.3}
	rng := rand.New(rand.NewSource(1))
	addr := func(f string, i int) netsim.Addr { return netsim.Addr(fmt.Sprintf(f, i)) }

	streams := []struct {
		name string
		gen  func(p diffParams) []netsim.PacketRecord
	}{
		// 400 bots hit one victim at 1 ms spacing, then two victims
		// alternate: bins roll over mid-flood and the source sets reset.
		{"flood-many-sources", func(p diffParams) []netsim.PacketRecord {
			var recs []netsim.PacketRecord
			for i := 0; i < 3000; i++ {
				dst := netsim.Addr("wan:victim")
				if i > 1500 && i%2 == 0 {
					dst = "wan:victim-2"
				}
				recs = append(recs, rec(time.Duration(i)*time.Millisecond, addr("lan:bot-%d", rng.Intn(400)), dst, 80, 512))
			}
			return recs
		}},
		// 200 sources each touch fanOut-1 targets over and over: never a
		// scan alert, while their windows slide and evict.
		{"under-fan-out", func(p diffParams) []netsim.PacketRecord {
			var recs []netsim.PacketRecord
			for i := 0; i < 4000; i++ {
				src := rng.Intn(200)
				tgt := rng.Intn(p.fanOut - 1)
				recs = append(recs, rec(time.Duration(i)*5*time.Millisecond, addr("lan:s-%d", src), addr("wan:t-%d", tgt), 23, 60))
			}
			return recs
		}},
		// Every record lands exactly on the previous one's window or bin
		// edge, from three scanning sources, so eviction and roll-over
		// comparisons are hit with equality.
		{"edges", func(p diffParams) []netsim.PacketRecord {
			var recs []netsim.PacketRecord
			var now time.Duration
			for i := 0; i < 2000; i++ {
				switch rng.Intn(4) {
				case 0:
					now += p.window
				case 1:
					now += p.bin
				case 2:
					now += p.window / time.Duration(p.fanOut)
				}
				src := addr("lan:e-%d", rng.Intn(3))
				recs = append(recs, rec(now, src, addr("wan:x-%d", rng.Intn(2*p.fanOut)), 23+rng.Intn(2), 60))
			}
			return recs
		}},
		// Sixteen (src, dst) pairs, interleaved, whose intervals are
		// irregular for a random stretch and then regular: the beacon
		// history is trimmed many times before a pair can alert.
		{"beacons", func(p diffParams) []netsim.PacketRecord {
			var recs []netsim.PacketRecord
			for pair := 0; pair < 16; pair++ {
				regularFrom := rng.Intn(20 * p.minSamples)
				var now time.Duration
				for i := 0; i < 30*p.minSamples; i++ {
					gap := 5 * time.Second
					if i < regularFrom {
						gap = time.Duration(1+rng.Intn(10)) * time.Second
					}
					now += gap + time.Duration(rng.Intn(50))*time.Millisecond
					recs = append(recs, rec(now, addr("lan:b-%d", pair%4), addr("wan:cnc-%d", pair/4), 6667, 64))
				}
			}
			sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
			return recs
		}},
		// A scanner and a flood, with every record sent two or three
		// times and timestamps that jump back up to twice the window.
		{"duplicates-out-of-order", func(p diffParams) []netsim.PacketRecord {
			var recs []netsim.PacketRecord
			now := 10 * p.window
			for i := 0; i < 3000; i++ {
				now += time.Duration(rng.Int63n(int64(p.window / 4)))
				if rng.Intn(5) == 0 {
					now -= time.Duration(rng.Int63n(int64(2 * p.window)))
				}
				r := rec(now, addr("lan:o-%d", rng.Intn(6)), addr("wan:y-%d", rng.Intn(3*p.fanOut)), 23, 60)
				for k := 1 + rng.Intn(3); k > 0; k-- {
					recs = append(recs, r)
				}
			}
			return recs
		}},
	}
	for _, p := range []diffParams{defaultParams, small} {
		total := 0
		for _, st := range streams {
			t.Run(fmt.Sprintf("%s/window=%s", st.name, p.window), func(t *testing.T) {
				total += diffRecords(t, p, st.gen(p))
			})
		}
		for i := 0; i < 50; i++ {
			prog := make([]byte, 3*(50+rng.Intn(1500)))
			rng.Read(prog)
			total += diffRecords(t, p, decodeRecords(prog, p))
		}
		if total == 0 {
			t.Errorf("window=%s: no stream raised an alert; the comparison checked nothing", p.window)
		}
	}
}

// FuzzPipelineMatchesReference runs decoded byte programs (see
// decodeRecords) through the rewritten detectors and the reference at
// small thresholds, where alerts are frequent.
func FuzzPipelineMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0, 0, 0x01, 0, 1, 0x01, 0, 2, 0x01, 0, 3, 0x80, 0, 4, 0xc0, 0, 0})
	f.Add([]byte{0x81, 1, 5, 0x81, 2, 5, 0x81, 3, 5, 0x7f, 4, 5, 0x00, 5, 5, 0xc0, 0, 0, 0x10, 6, 5})
	p := diffParams{window: 50 * time.Millisecond, bin: 20 * time.Millisecond, fanOut: 3, perBin: 3, minSources: 2, minSamples: 2, maxCV: 0.5}
	f.Fuzz(func(t *testing.T, prog []byte) {
		diffRecords(t, p, decodeRecords(prog, p))
	})
}
