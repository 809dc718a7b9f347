package netsim

import "testing"

// TestCaptureChunks taps enough packets to fill doubling chunks past the
// chunk cap, and checks Len, that Records keeps delivery order across
// every chunk boundary, that earlier records are never moved by later
// appends, and that Reset empties the capture for reuse.
func TestCaptureChunks(t *testing.T) {
	c := NewCapture()
	tap := c.Tap()
	send := func(from, to int) {
		for i := from; i < to; i++ {
			tap(TapLAN, &Packet{Src: "lan:a", Dst: "wan:b", Size: i})
		}
	}
	check := func(want int) {
		t.Helper()
		if c.Len() != want {
			t.Fatalf("Len = %d, want %d", c.Len(), want)
		}
		recs := c.Records()
		if len(recs) != want {
			t.Fatalf("Records has %d, want %d", len(recs), want)
		}
		for i, r := range recs {
			if r.Size != i {
				t.Fatalf("record %d has Size %d: out of delivery order", i, r.Size)
			}
		}
	}

	check(0)
	send(0, 1)
	first := &c.chunks[0][0]
	const total = 3*maxChunk + 17
	send(1, total)
	check(total)
	if &c.chunks[0][0] != first {
		t.Error("appending moved the first record")
	}
	size := minChunk
	for i, ch := range c.chunks[:len(c.chunks)-1] {
		if cap(ch) != size || len(ch) != size {
			t.Errorf("chunk %d holds %d of %d records, want a full chunk of %d", i, len(ch), cap(ch), size)
		}
		size = min(2*size, maxChunk)
	}

	c.Reset()
	check(0)
	send(0, 40)
	check(40)
}
