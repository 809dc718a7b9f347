package netsim

import (
	"math"
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

// Capture accumulates PacketRecords from a tap. Each packet is stored as
// a 32-byte record: the time, the ports and the size, and indices into
// the capture's table of interned strings (addresses, protocols, DNS
// names). Records are stored in chunks that double from minChunk up to
// maxChunk records, so an append never copies earlier records and a short
// capture stays small. Records rebuilds the PacketRecord values.
type Capture struct {
	chunks [][]record
	n      int
	// strs interns every address, protocol and DNS name the capture has
	// seen; strs[0] is "". index maps each string to its position.
	strs  []string
	index map[string]uint32
	// wide holds the ports and size of records whose values do not fit
	// a record's narrow fields.
	wide []wideFields
	// payloads holds the retained payloads, in record order.
	payloads []payload
	// IncludePayloads controls whether cleartext payloads are retained.
	IncludePayloads bool
}

// record is one captured packet.
type record struct {
	time time.Duration
	// size is the packet's size, or, when srcPort is wideMark, the index
	// of its ports and size in wide.
	size             uint32
	srcPort, dstPort uint16
	src, dst, proto  uint32
	// dns indexes the DNS name; encMark marks an encrypted packet, whose
	// name the observer cannot see.
	dns uint32
}

// wideFields are the ports and size of a record that does not fit.
type wideFields struct{ srcPort, dstPort, size int }

// payload is the retained payload of record i.
type payload struct {
	i int
	b []byte
}

// Record field marks.
const (
	wideMark = math.MaxUint16
	encMark  = math.MaxUint32
)

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
		rec := record{
			time:  pkt.DeliveredAt,
			src:   c.intern(string(pkt.Src)),
			dst:   c.intern(string(pkt.Dst)),
			proto: c.intern(pkt.Proto),
			dns:   encMark,
		}
		if fitsNarrow(pkt.SrcPort, wideMark) && fitsNarrow(pkt.DstPort, wideMark) && fitsNarrow(pkt.Size, math.MaxUint32) {
			rec.srcPort, rec.dstPort, rec.size = uint16(pkt.SrcPort), uint16(pkt.DstPort), uint32(pkt.Size)
		} else {
			rec.srcPort, rec.size = wideMark, uint32(len(c.wide))
			c.wide = append(c.wide, wideFields{pkt.SrcPort, pkt.DstPort, pkt.Size})
		}
		if !pkt.Encrypted {
			rec.dns = c.intern(pkt.DNSName)
			if c.IncludePayloads && len(pkt.Payload) > 0 {
				c.payloads = append(c.payloads, payload{c.n, append([]byte(nil), pkt.Payload...)})
			}
		}
		c.add(rec)
	}
}

// fitsNarrow reports whether v is in [0, limit). A port's limit is
// wideMark, which the field keeps for the mark.
func fitsNarrow(v int, limit uint64) bool { return v >= 0 && uint64(v) < limit }

// intern returns the index of s in the capture's string table, adding it
// on first sight.
func (c *Capture) intern(s string) uint32 {
	if c.index == nil {
		c.strs = []string{""}
		c.index = make(map[string]uint32)
	}
	if s == "" {
		return 0
	}
	if i, ok := c.index[s]; ok {
		return i
	}
	i := uint32(len(c.strs))
	c.strs = append(c.strs, s)
	c.index[s] = i
	return i
}

// add appends one record, opening a chunk twice the last one's size (up
// to maxChunk) when the last chunk is full.
func (c *Capture) add(rec record) {
	last := len(c.chunks) - 1
	if last < 0 || len(c.chunks[last]) == cap(c.chunks[last]) {
		size := minChunk
		if last >= 0 {
			size = min(2*cap(c.chunks[last]), maxChunk)
		}
		c.chunks = append(c.chunks, make([]record, 0, size))
		last++
	}
	c.chunks[last] = append(c.chunks[last], rec)
	c.n++
}

// Records returns the captured packets in delivery order. The slice is
// fresh; retained payloads are shared with the capture.
func (c *Capture) Records() []PacketRecord {
	out := make([]PacketRecord, 0, c.n)
	pays := c.payloads
	for _, ch := range c.chunks {
		for _, r := range ch {
			pr := PacketRecord{
				Time:    r.time,
				Src:     Addr(c.strs[r.src]),
				Dst:     Addr(c.strs[r.dst]),
				SrcPort: int(r.srcPort),
				DstPort: int(r.dstPort),
				Proto:   c.strs[r.proto],
				Size:    int(r.size),
			}
			if r.srcPort == wideMark {
				w := c.wide[r.size]
				pr.SrcPort, pr.DstPort, pr.Size = w.srcPort, w.dstPort, w.size
			}
			if r.dns == encMark {
				pr.Encrypted = true
			} else {
				pr.DNSName = c.strs[r.dns]
			}
			if len(pays) > 0 && pays[0].i == len(out) {
				pr.Payload = pays[0].b
				pays = pays[1:]
			}
			out = append(out, pr)
		}
	}
	return out
}

// Len returns the number of captured packets.
func (c *Capture) Len() int { return c.n }

// Reset discards captured packets.
func (c *Capture) Reset() {
	*c = Capture{IncludePayloads: c.IncludePayloads}
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
