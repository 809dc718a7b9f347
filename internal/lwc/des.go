package lwc

import (
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// This file implements DES (FIPS 46-3), Triple-DES (EDE), and DESL
// (Leander et al., FSE 2007 — the lightweight DES variant that replaces the
// eight S-boxes with a single strengthened S-box and drops the initial and
// final permutations). DES appears in Table III with its 56-bit effective
// key (the table prints "54"); keys are passed in the standard 64-bit
// parity-encoded form. The from-scratch DES is cross-checked against
// crypto/des in the test suite.

// Standard DES tables, 1-based bit indices with bit 1 = MSB, per FIPS 46-3.
var (
	desIP = [64]byte{
		58, 50, 42, 34, 26, 18, 10, 2,
		60, 52, 44, 36, 28, 20, 12, 4,
		62, 54, 46, 38, 30, 22, 14, 6,
		64, 56, 48, 40, 32, 24, 16, 8,
		57, 49, 41, 33, 25, 17, 9, 1,
		59, 51, 43, 35, 27, 19, 11, 3,
		61, 53, 45, 37, 29, 21, 13, 5,
		63, 55, 47, 39, 31, 23, 15, 7,
	}
	desFP = [64]byte{
		40, 8, 48, 16, 56, 24, 64, 32,
		39, 7, 47, 15, 55, 23, 63, 31,
		38, 6, 46, 14, 54, 22, 62, 30,
		37, 5, 45, 13, 53, 21, 61, 29,
		36, 4, 44, 12, 52, 20, 60, 28,
		35, 3, 43, 11, 51, 19, 59, 27,
		34, 2, 42, 10, 50, 18, 58, 26,
		33, 1, 41, 9, 49, 17, 57, 25,
	}
	desE = [48]byte{
		32, 1, 2, 3, 4, 5,
		4, 5, 6, 7, 8, 9,
		8, 9, 10, 11, 12, 13,
		12, 13, 14, 15, 16, 17,
		16, 17, 18, 19, 20, 21,
		20, 21, 22, 23, 24, 25,
		24, 25, 26, 27, 28, 29,
		28, 29, 30, 31, 32, 1,
	}
	desP = [32]byte{
		16, 7, 20, 21,
		29, 12, 28, 17,
		1, 15, 23, 26,
		5, 18, 31, 10,
		2, 8, 24, 14,
		32, 27, 3, 9,
		19, 13, 30, 6,
		22, 11, 4, 25,
	}
	desPC1 = [56]byte{
		57, 49, 41, 33, 25, 17, 9,
		1, 58, 50, 42, 34, 26, 18,
		10, 2, 59, 51, 43, 35, 27,
		19, 11, 3, 60, 52, 44, 36,
		63, 55, 47, 39, 31, 23, 15,
		7, 62, 54, 46, 38, 30, 22,
		14, 6, 61, 53, 45, 37, 29,
		21, 13, 5, 28, 20, 12, 4,
	}
	desPC2 = [48]byte{
		14, 17, 11, 24, 1, 5,
		3, 28, 15, 6, 21, 10,
		23, 19, 12, 4, 26, 8,
		16, 7, 27, 20, 13, 2,
		41, 52, 31, 37, 47, 55,
		30, 40, 51, 45, 33, 48,
		44, 49, 39, 56, 34, 53,
		46, 42, 50, 36, 29, 32,
	}
	desShifts = [16]byte{1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1}

	desSBoxes = [8][64]byte{
		{ // S1
			14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7,
			0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8,
			4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0,
			15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13,
		},
		{ // S2
			15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10,
			3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5,
			0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15,
			13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9,
		},
		{ // S3
			10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8,
			13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1,
			13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7,
			1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12,
		},
		{ // S4
			7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15,
			13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9,
			10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4,
			3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14,
		},
		{ // S5
			2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9,
			14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6,
			4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14,
			11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3,
		},
		{ // S6
			12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11,
			10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8,
			9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6,
			4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13,
		},
		{ // S7
			4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1,
			13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6,
			1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2,
			6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12,
		},
		{ // S8
			13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7,
			1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2,
			7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8,
			2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11,
		},
	}

	// deslSBox is the single strengthened S-box of DESL (Leander et al.,
	// FSE 2007), used in place of all eight DES S-boxes.
	deslSBox = [64]byte{
		14, 5, 7, 2, 11, 8, 1, 15, 0, 10, 9, 4, 6, 13, 12, 3,
		5, 0, 8, 15, 14, 3, 2, 12, 11, 7, 6, 9, 13, 4, 1, 10,
		4, 9, 2, 14, 8, 7, 13, 0, 10, 12, 15, 1, 5, 11, 3, 6,
		9, 6, 15, 5, 3, 8, 4, 11, 7, 1, 12, 2, 0, 14, 10, 13,
	}
)

// permute extracts bits of src per a 1-based table with bit 1 = MSB of an
// srcBits-wide value, producing a len(table)-bit value (MSB-first).
func permute(src uint64, srcBits int, table []byte) uint64 {
	var out uint64
	for _, pos := range table {
		out = out<<1 | (src >> uint(srcBits-int(pos)) & 1)
	}
	return out
}

// The DES round function is computed from tables built once at package
// initialisation from the spec tables above. Chunk b of the 48-bit
// E-expansion of R is R's bits 4b..4b+5 (1-based, wrapping at 32), which
// is the top six bits of R rotated left by 4b-1. Each SP table entry is
// one S-box's output, for a 6-bit chunk with the row/column bit mapping
// folded into its index, already moved by P to its output bits; the
// round is eight lookups OR-ed together. IP and FP are applied a byte at
// a time, each byte lane's table holding the permuted image of every
// byte value.
var (
	desSP    = buildDESSP(func(b int) *[64]byte { return &desSBoxes[b] })
	deslSP   = buildDESSP(func(int) *[64]byte { return &deslSBox })
	desIPTab = buildDESPermTab(&desIP)
	desFPTab = buildDESPermTab(&desFP)
)

func buildDESSP(box func(b int) *[64]byte) (t [8][64]uint32) {
	for b := range t {
		for v := range t[b] {
			// Row = outer bits, column = middle four bits.
			idx := v&0x20 | (v&1)<<4 | v>>1&0xF
			s := uint64(box(b)[idx]) << uint(28-4*b)
			t[b][v] = uint32(permute(s, 32, desP[:]))
		}
	}
	return t
}

func buildDESPermTab(table *[64]byte) (t [8][256]uint64) {
	for lane := range t {
		for v := range t[lane] {
			t[lane][v] = permute(uint64(v)<<uint(8*lane), 64, table[:])
		}
	}
	return t
}

func desPermute(t *[8][256]uint64, v uint64) uint64 {
	return t[0][byte(v)] | t[1][byte(v>>8)] | t[2][byte(v>>16)] | t[3][byte(v>>24)] |
		t[4][byte(v>>32)] | t[5][byte(v>>40)] | t[6][byte(v>>48)] | t[7][byte(v>>56)]
}

type desCipher struct {
	subkeys [16]uint64 // 48-bit round keys
	// useIPFP selects the classic DES initial/final permutations; DESL
	// omits them.
	useIPFP bool
	// sp is the fused S-box and P table: desSP, or deslSP for DESL.
	sp *[8][64]uint32
}

var _ cipher.Block = (*desCipher)(nil)

// NewDES returns single DES for an 8-byte (64-bit, parity-ignored) key.
// DES is present in Table III as the historical baseline; its 56-bit key
// is far below modern security margins and XLF never selects it for
// protection, only for comparison.
func NewDES(key []byte) (cipher.Block, error) {
	if len(key) != 8 {
		return nil, KeySizeError{Algorithm: "DES", Len: len(key)}
	}
	return newDES(key), nil
}

func newDES(key []byte) *desCipher {
	c := &desCipher{useIPFP: true, sp: &desSP}
	c.expandKey(key)
	return c
}

// NewDESL returns DESL: DES with a single strengthened S-box and without
// the (cryptographically irrelevant, hardware-costly) IP/FP permutations.
func NewDESL(key []byte) (cipher.Block, error) {
	if len(key) != 8 {
		return nil, KeySizeError{Algorithm: "DESL", Len: len(key)}
	}
	c := &desCipher{useIPFP: false, sp: &deslSP}
	c.expandKey(key)
	return c, nil
}

func (c *desCipher) expandKey(key []byte) {
	k := binary.BigEndian.Uint64(key)
	cd := permute(k, 64, desPC1[:]) // 56 bits: C (28) || D (28)
	ch := uint32(cd >> 28)
	dh := uint32(cd & 0x0FFFFFFF)
	rot28 := func(v uint32, n byte) uint32 {
		return (v<<n | v>>(28-n)) & 0x0FFFFFFF
	}
	for i := 0; i < 16; i++ {
		ch = rot28(ch, desShifts[i])
		dh = rot28(dh, desShifts[i])
		c.subkeys[i] = permute(uint64(ch)<<28|uint64(dh), 56, desPC2[:])
	}
}

// feistel is the DES round function: expand R to 48 bits, XOR the subkey,
// apply the S-boxes, then the P permutation.
func (c *desCipher) feistel(r uint32, k uint64) uint32 {
	sp := c.sp
	return sp[0][(bits.RotateLeft32(r, -1)>>26^uint32(k>>42))&0x3F] |
		sp[1][(bits.RotateLeft32(r, 3)>>26^uint32(k>>36))&0x3F] |
		sp[2][(bits.RotateLeft32(r, 7)>>26^uint32(k>>30))&0x3F] |
		sp[3][(bits.RotateLeft32(r, 11)>>26^uint32(k>>24))&0x3F] |
		sp[4][(bits.RotateLeft32(r, 15)>>26^uint32(k>>18))&0x3F] |
		sp[5][(bits.RotateLeft32(r, 19)>>26^uint32(k>>12))&0x3F] |
		sp[6][(bits.RotateLeft32(r, 23)>>26^uint32(k>>6))&0x3F] |
		sp[7][(bits.RotateLeft32(r, 27)>>26^uint32(k))&0x3F]
}

// rounds runs the 16 Feistel rounds on a block (after IP, for DES) and
// returns it with the last round's halves exchanged.
func (c *desCipher) rounds(v uint64, decrypt bool) uint64 {
	l, r := uint32(v>>32), uint32(v)
	if decrypt {
		for i := 15; i >= 0; i-- {
			l, r = r, l^c.feistel(r, c.subkeys[i])
		}
	} else {
		for i := 0; i < 16; i++ {
			l, r = r, l^c.feistel(r, c.subkeys[i])
		}
	}
	return uint64(r)<<32 | uint64(l)
}

func (c *desCipher) BlockSize() int { return 8 }

func (c *desCipher) crypt(dst, src []byte, decrypt bool) {
	v := binary.BigEndian.Uint64(src)
	if c.useIPFP {
		v = desPermute(&desIPTab, v)
	}
	v = c.rounds(v, decrypt)
	if c.useIPFP {
		v = desPermute(&desFPTab, v)
	}
	binary.BigEndian.PutUint64(dst, v)
}

func (c *desCipher) Encrypt(dst, src []byte) {
	checkBlock("DES", 8, dst, src)
	c.crypt(dst, src, false)
}

func (c *desCipher) Decrypt(dst, src []byte) {
	checkBlock("DES", 8, dst, src)
	c.crypt(dst, src, true)
}

type tripleDES struct {
	c1, c2, c3 *desCipher
}

var _ cipher.Block = (*tripleDES)(nil)

// NewTripleDES returns DES-EDE with a 16-byte (two-key, K3=K1) or 24-byte
// (three-key) key.
func NewTripleDES(key []byte) (cipher.Block, error) {
	switch len(key) {
	case 16:
		return &tripleDES{c1: newDES(key[0:8]), c2: newDES(key[8:16]), c3: newDES(key[0:8])}, nil
	case 24:
		return &tripleDES{c1: newDES(key[0:8]), c2: newDES(key[8:16]), c3: newDES(key[16:24])}, nil
	default:
		return nil, KeySizeError{Algorithm: "3DES", Len: len(key)}
	}
}

func (t *tripleDES) BlockSize() int { return 8 }

// Encrypt and Decrypt apply IP once and FP once: between two DES stages
// the first stage's FP and the second's IP cancel.
func (t *tripleDES) Encrypt(dst, src []byte) {
	checkBlock("3DES", 8, dst, src)
	v := desPermute(&desIPTab, binary.BigEndian.Uint64(src))
	v = t.c3.rounds(t.c2.rounds(t.c1.rounds(v, false), true), false)
	binary.BigEndian.PutUint64(dst, desPermute(&desFPTab, v))
}

func (t *tripleDES) Decrypt(dst, src []byte) {
	checkBlock("3DES", 8, dst, src)
	v := desPermute(&desIPTab, binary.BigEndian.Uint64(src))
	v = t.c1.rounds(t.c2.rounds(t.c3.rounds(v, true), false), true)
	binary.BigEndian.PutUint64(dst, desPermute(&desFPTab, v))
}
