package lwc

import (
	"encoding/binary"
	"hash"
)

// DMPresent is a lightweight 64-bit hash in the DM-PRESENT-128 style
// (Bogdanov et al.): a Davies-Meyer compression function built from
// PRESENT-128, iterated Merkle-Damgard with length-strengthening padding.
// It is what Table III's "lightweight hash functions" category refers to;
// XLF's device layer uses it for firmware fingerprints on devices too
// small for SHA-256.
//
// The 64-bit output targets integrity tagging, not collision resistance
// against funded adversaries — exactly the trade-off NIST IR 8114
// describes for constrained devices.
type DMPresent struct {
	h   uint64
	len uint64
	// buf holds the nbuf (< 8) input bytes not yet compressed.
	buf  [8]byte
	nbuf int
}

var _ hash.Hash = (*DMPresent)(nil)

// dmPresentIV is the initial chaining value (the hex expansion of pi).
const dmPresentIV uint64 = 0x243F6A8885A308D3

// NewDMPresent returns a new lightweight 64-bit hash.
func NewDMPresent() *DMPresent {
	d := &DMPresent{}
	d.Reset()
	return d
}

func (d *DMPresent) Reset() {
	d.h = dmPresentIV
	d.len = 0
	d.nbuf = 0
}

func (d *DMPresent) Size() int      { return 8 }
func (d *DMPresent) BlockSize() int { return 8 }

// dmCompress absorbs one 8-byte message block m into the chaining value
// h: H' = E_{H || M}(M) xor M.
func dmCompress(h, m uint64) uint64 {
	c := present128(h, m)
	return c.encrypt(m) ^ m
}

// Write compresses whole blocks straight from p and keeps only the
// trailing partial block.
func (d *DMPresent) Write(p []byte) (int, error) {
	written := len(p)
	d.len += uint64(len(p))
	if d.nbuf > 0 {
		k := copy(d.buf[d.nbuf:], p)
		d.nbuf += k
		p = p[k:]
		if d.nbuf < 8 {
			return written, nil
		}
		d.h = dmCompress(d.h, binary.BigEndian.Uint64(d.buf[:]))
		d.nbuf = 0
	}
	for len(p) >= 8 {
		d.h = dmCompress(d.h, binary.BigEndian.Uint64(p))
		p = p[8:]
	}
	d.nbuf = copy(d.buf[:], p)
	return written, nil
}

// Sum appends the 8-byte digest to b without disturbing the running state.
func (d *DMPresent) Sum(b []byte) []byte {
	return binary.BigEndian.AppendUint64(b, d.sum64())
}

// sum64 pads a copy of the state — 0x80, zeros to the block boundary,
// then the 64-bit message length in bits — and returns the digest.
func (d *DMPresent) sum64() uint64 {
	var tail [16]byte
	copy(tail[:], d.buf[:d.nbuf])
	tail[d.nbuf] = 0x80
	binary.BigEndian.PutUint64(tail[8:], d.len*8)
	h := dmCompress(d.h, binary.BigEndian.Uint64(tail[:8]))
	return dmCompress(h, binary.BigEndian.Uint64(tail[8:]))
}

// Sum64 returns the digest of data as a uint64 in one call.
func Sum64(data []byte) uint64 {
	d := DMPresent{h: dmPresentIV}
	d.Write(data) //xlf:allow-droperr hash.Hash.Write never returns an error
	return d.sum64()
}
