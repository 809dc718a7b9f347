package netsim

import (
	"sort"
	"time"
)

// PacketRecord is what an observer at a tap point legitimately sees: the
// metadata of one packet. Note there is no App/Dummy field — a passive
// adversary (or XLF's own monitors) must infer semantics from metadata, as
// in Apthorpe et al. and HoMonit.
type PacketRecord struct {
	Time     time.Duration
	Src, Dst Addr
	SrcPort  int
	DstPort  int
	Proto    string
	Size     int
	// Encrypted tells the observer it cannot read the payload.
	Encrypted bool
	// DNSName is visible only on cleartext DNS.
	DNSName string
	// Payload is included only for cleartext packets.
	Payload []byte
}

// Capture accumulates PacketRecords from a tap. Records are stored in
// chunks that double from minChunk up to maxChunk records, so an append
// never copies earlier records and a short capture stays small.
type Capture struct {
	chunks [][]PacketRecord
	n      int
	// IncludePayloads controls whether cleartext payloads are retained.
	IncludePayloads bool
}

// Capture chunk sizes, in records.
const (
	minChunk = 16
	maxChunk = 4096
)

// NewCapture returns an empty capture.
func NewCapture() *Capture { return &Capture{} }

// Tap returns the tap function to register with Network.AddTap.
func (c *Capture) Tap() Tap {
	return func(dir TapDirection, pkt *Packet) {
		rec := PacketRecord{
			Time:      pkt.DeliveredAt,
			Src:       pkt.Src,
			Dst:       pkt.Dst,
			SrcPort:   pkt.SrcPort,
			DstPort:   pkt.DstPort,
			Proto:     pkt.Proto,
			Size:      pkt.Size,
			Encrypted: pkt.Encrypted,
		}
		if !pkt.Encrypted {
			rec.DNSName = pkt.DNSName
			if c.IncludePayloads {
				rec.Payload = append([]byte(nil), pkt.Payload...)
			}
		}
		c.add(rec)
	}
}

// add appends one record, opening a chunk twice the last one's size (up
// to maxChunk) when the last chunk is full.
func (c *Capture) add(rec PacketRecord) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		size := minChunk
		if last >= 0 {
			size = min(2*cap(c.chunks[last]), maxChunk)
		}
		c.chunks = append(c.chunks, make([]PacketRecord, 0, size))
		last++
	}
	c.chunks[last] = append(c.chunks[last], rec)
	c.n++
}

// Records returns the captured packets in delivery order (a copy of the
// slice; records are shared).
func (c *Capture) Records() []PacketRecord {
	out := make([]PacketRecord, 0, c.n)
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// Len returns the number of captured packets.
func (c *Capture) Len() int { return c.n }

// Reset discards captured packets.
func (c *Capture) Reset() {
	c.chunks = nil
	c.n = 0
}

// FlowStat summarises one unidirectional flow in a capture.
type FlowStat struct {
	Key     FlowKey
	Packets int
	Bytes   int
	First   time.Duration
	Last    time.Duration
}

// Rate returns the mean throughput in bytes/second over the flow's active
// interval (0 if degenerate).
func (f FlowStat) Rate() float64 {
	d := (f.Last - f.First).Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.Bytes) / d
}

// FlowStats aggregates a capture into per-flow summaries, sorted by
// descending byte count — step one of the Apthorpe-style observer.
func FlowStats(records []PacketRecord) []FlowStat {
	agg := make(map[FlowKey]*FlowStat)
	for _, r := range records {
		k := FlowKey{Src: r.Src, Dst: r.Dst, DstPort: r.DstPort, Proto: r.Proto}
		s, ok := agg[k]
		if !ok {
			s = &FlowStat{Key: k, First: r.Time}
			agg[k] = s
		}
		s.Packets++
		s.Bytes += r.Size
		s.Last = r.Time
	}
	out := make([]FlowStat, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Key.Src < out[j].Key.Src
	})
	return out
}
