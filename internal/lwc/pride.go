package lwc

import (
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// PRIDE (Albrecht et al., CRYPTO 2014) is a software-oriented 64-bit SPN
// with a 128-bit key: k0 is used for pre-/post-whitening, k1 derives the 20
// round keys via byte-wise round-constant additions. This is a
// structure-faithful reimplementation: the S-box, key schedule constants
// (0xC1, 0xA5, 0x51, 0xC5) and round structure follow the published
// design; the bit-sliced linear layers L0..L3 are substituted with
// documented invertible word-level mixers. Validated by property tests.

// prideSBox is the PRIDE 4-bit S-box.
var prideSBox = [16]byte{
	0x0, 0x4, 0x8, 0xF, 0x1, 0x5, 0xE, 0x9,
	0x2, 0x7, 0xA, 0xC, 0xB, 0xD, 0x6, 0x3,
}

var prideSBoxInv = invert4(prideSBox)

const prideRounds = 20

type pride struct {
	k0 uint64              // whitening key
	rk [prideRounds]uint64 // round keys
	// lrk holds L^-1(rk[r]), the round keys moved into the domain in
	// which Decrypt runs.
	lrk [prideRounds]uint64
}

var _ cipher.Block = (*pride)(nil)

// NewPride returns the PRIDE cipher for a 16-byte key.
func NewPride(key []byte) (cipher.Block, error) {
	if len(key) != 16 {
		return nil, KeySizeError{Algorithm: "Pride", Len: len(key)}
	}
	var c pride
	c.k0 = binary.BigEndian.Uint64(key[0:8])
	var k1 [8]byte
	copy(k1[:], key[8:16])
	for r := 0; r < prideRounds; r++ {
		// f_r(k1): add round-dependent constants into the odd bytes.
		kr := k1
		i := byte(r + 1)
		kr[1] += 0xC1 * i
		kr[3] += 0xA5 * i
		kr[5] += 0x51 * i
		kr[7] += 0xC5 * i
		c.rk[r] = binary.BigEndian.Uint64(kr[:])
		c.lrk[r] = prideLinearInv(c.rk[r])
	}
	return &c, nil
}

func (c *pride) BlockSize() int { return 8 }

// prideRotations are the per-16-bit-word mixing rotations of the
// substituted linear layer (invertible by construction).
var prideRotations = [4]int{1, 4, 9, 12}

// prideLinear mixes the state: each 16-bit word w_i is replaced by
// w_i ^ rotl(w_i, r_i) ^ rotl(w_i, r_i+2), then adjacent words are
// cross-mixed with an invertible Feistel-like swap-XOR.
func prideLinear(s uint64) uint64 {
	var w [4]uint16
	for i := range w {
		w[i] = uint16(s >> uint(16*(3-i)))
	}
	for i := range w {
		r := prideRotations[i]
		w[i] = wordMix(w[i], r)
	}
	// Cross-word diffusion (self-inverse on double application order).
	w[0] ^= w[2]
	w[1] ^= w[3]
	w[2] ^= w[1]
	w[3] ^= w[0]
	var out uint64
	for i := range w {
		out |= uint64(w[i]) << uint(16*(3-i))
	}
	return out
}

func prideLinearInv(s uint64) uint64 {
	var w [4]uint16
	for i := range w {
		w[i] = uint16(s >> uint(16*(3-i)))
	}
	w[3] ^= w[0]
	w[2] ^= w[1]
	w[1] ^= w[3]
	w[0] ^= w[2]
	for i := range w {
		w[i] = wordMixInvAt(w[i], i)
	}
	var out uint64
	for i := range w {
		out |= uint64(w[i]) << uint(16*(3-i))
	}
	return out
}

// wordMix computes x ^ rotl(x,r) ^ rotl(x,r+2). The map is linear over
// GF(2); invertibility for the rotation amounts used here is checked at
// construction of the inverse table.
func wordMix(x uint16, r int) uint16 {
	return x ^ rotl16(x, r) ^ rotl16(x, r+2)
}

// prideInvMats holds the precomputed inverse matrices of wordMix for each
// word's rotation amount. Computed once at package load and immutable
// afterwards.
var prideInvMats = func() [4]linear16 {
	var ms [4]linear16
	for i, r := range prideRotations {
		r := r
		ms[i] = invertLinear16(func(v uint16) uint16 { return wordMix(v, r) })
	}
	return ms
}()

// wordMixInvAt inverts wordMix for word index i using the precomputed
// inverse matrix.
func wordMixInvAt(x uint16, i int) uint16 {
	return applyLinear16(prideInvMats[i], x)
}

func rotl16(x uint16, n int) uint16 {
	return bits.RotateLeft16(x, n)
}

// linear16 is a 16x16 GF(2) matrix stored as 16 row masks: output bit i is
// parity(row[i] & x).
type linear16 [16]uint16

func applyLinear16(m linear16, x uint16) uint16 {
	var out uint16
	for i := 0; i < 16; i++ {
		if bits.OnesCount16(m[i]&x)&1 == 1 {
			out |= 1 << uint(i)
		}
	}
	return out
}

// matrixOf samples a linear function into matrix form (columns = images of
// basis vectors), returned as row masks.
func matrixOf(f func(uint16) uint16) linear16 {
	var rows linear16
	for j := 0; j < 16; j++ {
		col := f(1 << uint(j))
		for i := 0; i < 16; i++ {
			if col>>uint(i)&1 == 1 {
				rows[i] |= 1 << uint(j)
			}
		}
	}
	return rows
}

// invertLinear16 inverts a linear map over GF(2)^16 by Gauss-Jordan
// elimination. It panics if the map is singular, which would be a
// programming error in the cipher's linear layer.
func invertLinear16(f func(uint16) uint16) linear16 {
	a := matrixOf(f)
	var inv linear16
	for i := range inv {
		inv[i] = 1 << uint(i)
	}
	for col := 0; col < 16; col++ {
		pivot := -1
		for r := col; r < 16; r++ {
			if a[r]>>uint(col)&1 == 1 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			panic("lwc: pride linear layer is singular")
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		for r := 0; r < 16; r++ {
			if r != col && a[r]>>uint(col)&1 == 1 {
				a[r] ^= a[col]
				inv[r] ^= inv[col]
			}
		}
	}
	return inv
}

// PRIDE's rounds are computed from tables built once at package
// initialisation. The linear layer L and its inverse are linear over
// GF(2), so each maps the XOR of its 8 byte lanes to the XOR of their
// images, and the 4-bit S-box works inside a byte. A fused table's lane
// l entry for byte b is therefore the L-image of b with both of its
// nibbles substituted, placed at lane l: prideEncTab fuses S with L,
// prideDecTab fuses S^-1 with L^-1. The S-only byte tables serve the
// round without a linear layer.
var (
	prideSubTab, prideSubInvTab = nibbleSubTab(&prideSBox), nibbleSubTab(&prideSBoxInv)
	prideEncTab                 = buildPrideTab(&prideSubTab, prideLinear)
	prideDecTab                 = buildPrideTab(&prideSubInvTab, prideLinearInv)
)

func buildPrideTab(sub *[256]byte, linear func(uint64) uint64) (t [8][256]uint64) {
	for lane := range t {
		for b := range t[lane] {
			t[lane][b] = linear(uint64(sub[b]) << uint(8*lane))
		}
	}
	return t
}

func prideRound(t *[8][256]uint64, s uint64) uint64 {
	return t[0][byte(s)] ^ t[1][byte(s>>8)] ^ t[2][byte(s>>16)] ^ t[3][byte(s>>24)] ^
		t[4][byte(s>>32)] ^ t[5][byte(s>>40)] ^ t[6][byte(s>>48)] ^ t[7][byte(s>>56)]
}

func (c *pride) Encrypt(dst, src []byte) {
	checkBlock("Pride", 8, dst, src)
	s := binary.BigEndian.Uint64(src) ^ c.k0
	for r := 0; r < prideRounds-1; r++ {
		s = prideRound(&prideEncTab, s^c.rk[r])
	}
	// The last round omits the linear layer.
	s = subBytes(&prideSubTab, s^c.rk[prideRounds-1])
	s ^= c.k0
	binary.BigEndian.PutUint64(dst, s)
}

// Decrypt undoes round r < 19 as s = S^-1(L^-1(s)) ^ rk[r]. Tracked
// through u = L^-1(s), that is u = L^-1(S^-1(u)) ^ L^-1(rk[r]), one
// fused-table round.
func (c *pride) Decrypt(dst, src []byte) {
	checkBlock("Pride", 8, dst, src)
	s := binary.BigEndian.Uint64(src) ^ c.k0
	u := prideRound(&prideDecTab, s) ^ c.lrk[prideRounds-1]
	for r := prideRounds - 2; r > 0; r-- {
		u = prideRound(&prideDecTab, u) ^ c.lrk[r]
	}
	s = subBytes(&prideSubInvTab, u) ^ c.rk[0]
	s ^= c.k0
	binary.BigEndian.PutUint64(dst, s)
}
