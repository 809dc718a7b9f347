package netsim

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
	"unsafe"
)

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

// TestLayoutSizes pins the two sizes the packet path is tuned for: a
// capture record is 32 bytes, and the pooled mark fits in Packet's tail
// padding, so a Packet stays 168 bytes on 64-bit platforms.
func TestLayoutSizes(t *testing.T) {
	if s := unsafe.Sizeof(record{}); s != 32 {
		t.Errorf("capture record is %d bytes, want 32", s)
	}
	if s := unsafe.Sizeof(Packet{}); unsafe.Sizeof(uintptr(0)) == 8 && s != 168 {
		t.Errorf("Packet is %d bytes, want 168", s)
	}
}

// captureProgram drives a Capture and the reference capture through the
// same byte program: taps of packets decoded from the bytes, toggles of
// IncludePayloads and Resets. It fails the test at the first point where
// Len or Records differ.
func captureProgram(t *testing.T, prog []byte) {
	t.Helper()
	got, want := NewCapture(), &refCapture{}
	gotTap, wantTap := got.Tap(), want.Tap()
	r := byteReader{b: prog}
	compare := func(when string) {
		t.Helper()
		if got.Len() != want.Len() {
			t.Fatalf("%s: Len = %d, reference %d", when, got.Len(), want.Len())
		}
		g, w := got.Records(), want.Records()
		if !reflect.DeepEqual(g, w) {
			for i := range w {
				if i >= len(g) || !reflect.DeepEqual(g[i], w[i]) {
					t.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", when, i, g[i:min(i+1, len(g))], w[i])
				}
			}
			t.Fatalf("%s: %d records, reference %d", when, len(g), len(w))
		}
	}
	for !r.done() {
		switch op := r.byte(); {
		case op < 200:
			pkt := r.packet()
			dir := TapLAN
			if op&1 == 1 {
				dir = TapWAN
			}
			gotTap(dir, pkt)
			wantTap(dir, pkt)
		case op < 230:
			got.IncludePayloads = !got.IncludePayloads
			want.IncludePayloads = got.IncludePayloads
		default:
			compare("before Reset")
			got.Reset()
			want.Reset()
		}
	}
	compare("at end")
}

// byteReader decodes a capture program; it reads zeros once the bytes run
// out.
type byteReader struct {
	b []byte
	i int
}

func (r *byteReader) done() bool { return r.i >= len(r.b) }

func (r *byteReader) byte() byte {
	if r.done() {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

func (r *byteReader) uint(n int) uint64 {
	var v uint64
	for range n {
		v = v<<8 | uint64(r.byte())
	}
	return v
}

// int decodes a port or size: small, 16-bit (including the narrow
// field's mark), 32-bit, or a full 64-bit value, negative ones included.
func (r *byteReader) int() int {
	switch r.byte() % 6 {
	case 0:
		return int(r.byte())
	case 1:
		return int(r.uint(2))
	case 2:
		return math.MaxUint16 - int(r.byte()%2)
	case 3:
		return int(r.uint(4))
	case 4:
		return math.MaxUint32 - 1 + int(r.byte()%3)
	default:
		return int(int64(r.uint(8)))
	}
}

// str picks a string from pool, or builds a fresh one so that the
// interning table grows.
func (r *byteReader) str(pool ...string) string {
	b := r.byte()
	if int(b) < len(pool) {
		return pool[b]
	}
	if b < 128 {
		return pool[int(b)%len(pool)]
	}
	return pool[int(b)%len(pool)] + string(rune('a'+r.byte()%26)) + string(rune('a'+r.byte()%26))
}

func (r *byteReader) packet() *Packet {
	p := &Packet{
		DeliveredAt: time.Duration(r.uint(8)),
		Src:         Addr(r.str("", "lan:a", "lan:b", "wan:home", "wan:cloud")),
		Dst:         Addr(r.str("", "wan:cloud", "lan:a", "wan:dns")),
		SrcPort:     r.int(),
		DstPort:     r.int(),
		Proto:       r.str("", "TLS", "DNS", "MQTT", "UPnP"),
		Size:        r.int(),
		DNSName:     r.str("", "cloud.example", "cnc.botnet.example"),
		App:         "ground-truth",
	}
	flags := r.byte()
	p.Encrypted = flags&1 == 1
	if n := int(flags>>1) % 9; n > 0 {
		p.Payload = make([]byte, n-1) // n-1 == 0: an empty, non-nil payload
		for i := range p.Payload {
			p.Payload[i] = r.byte()
		}
	}
	return p
}

// TestCaptureMatchesReference runs random capture programs, plus one long
// enough to fill several chunks, against the reference capture.
func TestCaptureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		prog := make([]byte, rng.Intn(600))
		rng.Read(prog)
		captureProgram(t, prog)
	}
	long := make([]byte, 0, 40*(maxChunk+minChunk))
	for i := 0; len(long) < cap(long); i++ {
		long = append(long, byte(i%200), byte(i), byte(i>>8), 3, byte(i%7), 2, byte(i), 3, 0, 0, 0, byte(i%5), 5, byte(i), 1, byte(i), 0, byte(i%4), byte(i))
	}
	captureProgram(t, long)
}

// FuzzCaptureMatchesReference compares Capture's Records and Len against
// the reference capture over fuzzed programs of taps, IncludePayloads
// toggles and Resets.
func FuzzCaptureMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{210, 4, 0, 0, 0, 0, 0, 0, 0, 9, 1, 1, 5, 255, 255, 255, 255, 255, 255, 255, 255, 2, 1, 4, 2, 3, 2, 0, 6, 1, 2, 3, 240, 1})
	f.Add(bytes.Repeat([]byte{1, 0, 0, 0, 0, 0, 0, 0, 7, 200, 9, 201, 3, 3, 0, 1, 0, 2, 4, 0, 0, 130, 17, 8}, 20))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			return
		}
		captureProgram(t, prog)
	})
}
