package netsim

// refCapture is Capture as it was before records were stored compactly,
// kept verbatim (only renamed) as the differential oracle for
// TestCaptureMatchesReference and FuzzCaptureMatchesReference. It keeps a
// full PacketRecord per packet.
type refCapture struct {
	chunks [][]PacketRecord
	n      int
	// IncludePayloads controls whether cleartext payloads are retained.
	IncludePayloads bool
}

// Tap returns the tap function to register with Network.AddTap.
func (c *refCapture) Tap() Tap {
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
func (c *refCapture) add(rec PacketRecord) {
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
func (c *refCapture) Records() []PacketRecord {
	out := make([]PacketRecord, 0, c.n)
	for _, ch := range c.chunks {
		out = append(out, ch...)
	}
	return out
}

// Len returns the number of captured packets.
func (c *refCapture) Len() int { return c.n }

// Reset discards captured packets.
func (c *refCapture) Reset() {
	c.chunks = nil
	c.n = 0
}
