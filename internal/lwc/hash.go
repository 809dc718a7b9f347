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
	buf []byte
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
	d.buf = d.buf[:0]
}

func (d *DMPresent) Size() int      { return 8 }
func (d *DMPresent) BlockSize() int { return 8 }

// compress absorbs one 8-byte message block: H' = E_{H || M}(M) xor M.
func (d *DMPresent) compress(block []byte) {
	m := binary.BigEndian.Uint64(block)
	c := present128(d.h, m)
	d.h = c.encrypt(m) ^ m
}

func (d *DMPresent) Write(p []byte) (int, error) {
	d.len += uint64(len(p))
	d.buf = append(d.buf, p...)
	for len(d.buf) >= 8 {
		d.compress(d.buf[:8])
		d.buf = d.buf[8:]
	}
	return len(p), nil
}

// Sum appends the 8-byte digest to b without disturbing the running state.
func (d *DMPresent) Sum(b []byte) []byte {
	// Clone state, then pad: 0x80, zeros, 64-bit length.
	clone := &DMPresent{h: d.h, len: d.len}
	clone.buf = append(clone.buf, d.buf...)
	clone.buf = append(clone.buf, 0x80)
	for len(clone.buf)%8 != 0 {
		clone.buf = append(clone.buf, 0)
	}
	var lenBlock [8]byte
	binary.BigEndian.PutUint64(lenBlock[:], d.len*8)
	clone.buf = append(clone.buf, lenBlock[:]...)
	for len(clone.buf) >= 8 {
		clone.compress(clone.buf[:8])
		clone.buf = clone.buf[8:]
	}
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], clone.h)
	return append(b, out[:]...)
}

// Sum64 returns the digest of data as a uint64 in one call.
func Sum64(data []byte) uint64 {
	d := NewDMPresent()
	d.Write(data) //xlf:allow-droperr hash.Hash.Write never returns an error
	var out [8]byte
	d.Sum(out[:0])
	return binary.BigEndian.Uint64(out[:])
}
