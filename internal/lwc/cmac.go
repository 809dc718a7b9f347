package lwc

import (
	"crypto/cipher"
	"crypto/subtle"
	"fmt"
	"hash"
)

// CMAC (OMAC1, NIST SP 800-38B) over any 64- or 128-bit block cipher. The
// XLF device layer uses CMAC with a lightweight cipher as its message
// authentication primitive, per the paper's Table III framing of
// "lightweight MACs" built from lightweight block ciphers.

// cmacRb returns the finite-field constant for subkey derivation.
func cmacRb(blockSize int) byte {
	switch blockSize {
	case 8:
		return 0x1B
	case 16:
		return 0x87
	default:
		return 0
	}
}

// cmac owns every buffer it works in, so Reset, Write and Sum allocate
// nothing: x is the chaining value, buf the pending (possibly final) block,
// and last and tag the padded final block and its encryption at Sum.
type cmac struct {
	blk        cipher.Block
	k1, k2     []byte
	x, scratch []byte
	buf        []byte
	last, tag  []byte
}

var _ hash.Hash = (*cmac)(nil)

// NewCMAC returns a hash.Hash computing CMAC over the given block cipher.
// Only 64- and 128-bit block ciphers are supported.
func NewCMAC(blk cipher.Block) (hash.Hash, error) {
	n := blk.BlockSize()
	if cmacRb(n) == 0 {
		return nil, fmt.Errorf("lwc: CMAC requires a 64- or 128-bit block cipher, got %d bits", n*8)
	}
	state := make([]byte, 5*n)
	m := &cmac{
		blk:     blk,
		x:       state[:n:n],
		scratch: state[n : 2*n : 2*n],
		buf:     state[2*n : 2*n : 3*n],
		last:    state[3*n : 4*n : 4*n],
		tag:     state[4*n:],
	}
	// Subkeys: L = E(0); K1 = dbl(L); K2 = dbl(K1).
	l := make([]byte, n)
	blk.Encrypt(l, l)
	m.k1 = dbl(l, cmacRb(n))
	m.k2 = dbl(m.k1, cmacRb(n))
	return m, nil
}

// dbl doubles a field element: left shift by one, conditionally XORing Rb.
func dbl(v []byte, rb byte) []byte {
	out := make([]byte, len(v))
	var carry byte
	for i := len(v) - 1; i >= 0; i-- {
		out[i] = v[i]<<1 | carry
		carry = v[i] >> 7
	}
	// Constant-time conditional XOR of Rb into the last byte.
	out[len(out)-1] ^= rb & byte(subtle.ConstantTimeByteEq(carry, 1)*0xFF)
	return out
}

func (m *cmac) Size() int      { return m.blk.BlockSize() }
func (m *cmac) BlockSize() int { return m.blk.BlockSize() }

func (m *cmac) Reset() {
	clear(m.x)
	clear(m.scratch)
	m.buf = m.buf[:0]
}

func (m *cmac) Write(p []byte) (int, error) {
	n := m.blk.BlockSize()
	written := len(p)
	// The pending block is compressed only once more input follows it:
	// the last block is handled specially at Sum time.
	if len(m.buf) > 0 {
		k := copy(m.buf[len(m.buf):n], p)
		m.buf = m.buf[:len(m.buf)+k]
		p = p[k:]
		if len(p) == 0 {
			return written, nil
		}
		m.compress(m.buf)
		m.buf = m.buf[:0]
	}
	for len(p) > n {
		m.compress(p[:n])
		p = p[n:]
	}
	m.buf = append(m.buf, p...)
	return written, nil
}

// compress absorbs one full, non-final block into the chaining value.
func (m *cmac) compress(block []byte) {
	xorBytes(m.scratch, m.x, block)
	m.blk.Encrypt(m.x, m.scratch)
}

// Sum appends the MAC to b. Sum does not alter the running state, matching
// the hash.Hash contract.
func (m *cmac) Sum(b []byte) []byte {
	n := m.blk.BlockSize()
	last := m.last
	switch {
	case len(m.buf) == n:
		xorBytes(last, m.buf, m.k1)
	default:
		// The previous Sum left its block here: the zero padding after
		// the 0x80 marker must be restored.
		clear(last)
		copy(last, m.buf)
		last[len(m.buf)] = 0x80
		xorBytes(last, last, m.k2)
	}
	xorBytes(last, last, m.x)
	m.blk.Encrypt(m.tag, last)
	return append(b, m.tag...)
}

func xorBytes(dst, a, b []byte) {
	for i := range dst {
		dst[i] = a[i] ^ b[i]
	}
}
