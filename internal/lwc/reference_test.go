package lwc

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Bit-serial reference implementations of DES, DESL, 3DES, ICEBERG, PRIDE
// and TWINE: each cipher computed one spec-table bit or nibble at a time,
// exactly as the package did before its rounds became table-driven.
// TestCiphersMatchReference and FuzzCipherMatchesReference check the
// table-driven ciphers against them bit for bit. They share only the
// spec tables and spec functions (permute, icebergSub, icebergPermute,
// prideLinear, prideLinearInv) with the production code.

// ---------------------------------------------------------------------
// DES, DESL and 3DES

type refDES struct {
	subkeys [16]uint64 // 48-bit round keys
	useIPFP bool
	sbox    func(b int, v byte) byte
}

func newRefDES(key []byte) cipher.Block {
	c := &refDES{useIPFP: true, sbox: func(b int, v byte) byte { return desSBoxes[b][v] }}
	c.expandKey(key)
	return c
}

func newRefDESL(key []byte) cipher.Block {
	c := &refDES{useIPFP: false, sbox: func(b int, v byte) byte { return deslSBox[v] }}
	c.expandKey(key)
	return c
}

func (c *refDES) expandKey(key []byte) {
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
func (c *refDES) feistel(r uint32, k uint64) uint32 {
	e := permute(uint64(r), 32, desE[:]) ^ k
	var s uint32
	for b := 0; b < 8; b++ {
		v := byte(e >> uint(42-6*b) & 0x3F)
		// Row = outer bits, column = middle four bits.
		idx := v&0x20 | (v&1)<<4 | v>>1&0xF
		s = s<<4 | uint32(c.sbox(b, idx))
	}
	return uint32(permute(uint64(s), 32, desP[:]))
}

func (c *refDES) BlockSize() int { return 8 }

func (c *refDES) crypt(dst, src []byte, decrypt bool) {
	v := binary.BigEndian.Uint64(src)
	if c.useIPFP {
		v = permute(v, 64, desIP[:])
	}
	l, r := uint32(v>>32), uint32(v)
	for i := 0; i < 16; i++ {
		k := c.subkeys[i]
		if decrypt {
			k = c.subkeys[15-i]
		}
		l, r = r, l^c.feistel(r, k)
	}
	// Final swap: the last round's halves are exchanged.
	v = uint64(r)<<32 | uint64(l)
	if c.useIPFP {
		v = permute(v, 64, desFP[:])
	}
	binary.BigEndian.PutUint64(dst, v)
}

func (c *refDES) Encrypt(dst, src []byte) { c.crypt(dst, src, false) }
func (c *refDES) Decrypt(dst, src []byte) { c.crypt(dst, src, true) }

type refTripleDES struct {
	c1, c2, c3 cipher.Block
}

func newRefTripleDES(key []byte) cipher.Block {
	var k1, k2, k3 []byte
	switch len(key) {
	case 16:
		k1, k2, k3 = key[0:8], key[8:16], key[0:8]
	case 24:
		k1, k2, k3 = key[0:8], key[8:16], key[16:24]
	}
	return &refTripleDES{c1: newRefDES(k1), c2: newRefDES(k2), c3: newRefDES(k3)}
}

func (t *refTripleDES) BlockSize() int { return 8 }

func (t *refTripleDES) Encrypt(dst, src []byte) {
	var tmp [8]byte
	t.c1.Encrypt(tmp[:], src)
	t.c2.Decrypt(tmp[:], tmp[:])
	t.c3.Encrypt(dst, tmp[:])
}

func (t *refTripleDES) Decrypt(dst, src []byte) {
	var tmp [8]byte
	t.c3.Decrypt(tmp[:], src)
	t.c2.Encrypt(tmp[:], tmp[:])
	t.c1.Decrypt(dst, tmp[:])
}

// ---------------------------------------------------------------------
// ICEBERG

type refIceberg struct {
	rk [icebergRounds + 1]uint64
}

func newRefIceberg(key []byte) cipher.Block {
	hi := binary.BigEndian.Uint64(key[0:8])
	lo := binary.BigEndian.Uint64(key[8:16])
	var c refIceberg
	for r := 0; r <= icebergRounds; r++ {
		if r%2 == 0 {
			c.rk[r] = icebergSub(hi ^ uint64(r)*0x9E3779B97F4A7C15)
		} else {
			c.rk[r] = icebergSub(lo ^ uint64(r)*0x9E3779B97F4A7C15)
		}
		nh := hi<<13 | lo>>51
		nl := lo<<13 | hi>>51
		hi, lo = nh, nl
	}
	return &c
}

func (c *refIceberg) BlockSize() int { return 8 }

func (c *refIceberg) Encrypt(dst, src []byte) {
	s := binary.BigEndian.Uint64(src)
	for r := 0; r < icebergRounds; r++ {
		s ^= c.rk[r]
		s = icebergSub(s)
		s = icebergPermute(s)
	}
	s ^= c.rk[icebergRounds]
	binary.BigEndian.PutUint64(dst, s)
}

func (c *refIceberg) Decrypt(dst, src []byte) {
	s := binary.BigEndian.Uint64(src)
	s ^= c.rk[icebergRounds]
	for r := icebergRounds - 1; r >= 0; r-- {
		// Both the S-layer and the P-layer are involutions, so decryption
		// applies the same layers in reverse order.
		s = icebergPermute(s)
		s = icebergSub(s)
		s ^= c.rk[r]
	}
	binary.BigEndian.PutUint64(dst, s)
}

// ---------------------------------------------------------------------
// PRIDE

type refPride struct {
	k0 uint64              // whitening key
	rk [prideRounds]uint64 // round keys
}

func newRefPride(key []byte) cipher.Block {
	var c refPride
	c.k0 = binary.BigEndian.Uint64(key[0:8])
	var k1 [8]byte
	copy(k1[:], key[8:16])
	for r := 0; r < prideRounds; r++ {
		kr := k1
		i := byte(r + 1)
		kr[1] += 0xC1 * i
		kr[3] += 0xA5 * i
		kr[5] += 0x51 * i
		kr[7] += 0xC5 * i
		c.rk[r] = binary.BigEndian.Uint64(kr[:])
	}
	return &c
}

func (c *refPride) BlockSize() int { return 8 }

// prideSub applies the 4-bit S-box to all 16 nibbles.
func prideSub(s uint64, box *[16]byte) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= uint64(box[s>>uint(4*i)&0xF]) << uint(4*i)
	}
	return out
}

func (c *refPride) Encrypt(dst, src []byte) {
	s := binary.BigEndian.Uint64(src) ^ c.k0
	for r := 0; r < prideRounds; r++ {
		s ^= c.rk[r]
		s = prideSub(s, &prideSBox)
		if r != prideRounds-1 { // the last round omits the linear layer
			s = prideLinear(s)
		}
	}
	s ^= c.k0
	binary.BigEndian.PutUint64(dst, s)
}

func (c *refPride) Decrypt(dst, src []byte) {
	s := binary.BigEndian.Uint64(src) ^ c.k0
	for r := prideRounds - 1; r >= 0; r-- {
		if r != prideRounds-1 {
			s = prideLinearInv(s)
		}
		s = prideSub(s, &prideSBoxInv)
		s ^= c.rk[r]
	}
	s ^= c.k0
	binary.BigEndian.PutUint64(dst, s)
}

// ---------------------------------------------------------------------
// TWINE

type refTWINE struct {
	rk [twineRounds][8]byte // 8 nibble round keys per round
}

func newRefTWINE(key []byte) cipher.Block {
	reg := make([]byte, 0, len(key)*2)
	for _, b := range key {
		reg = append(reg, b>>4, b&0xF)
	}
	con := byte(1)
	nextCon := func() byte {
		c := con
		fb := (con >> 5) ^ (con>>4)&1
		con = (con<<1 | fb&1) & 0x3F
		return c
	}
	var c refTWINE
	n := len(reg)
	for r := 0; r < twineRounds; r++ {
		for j := 0; j < 8; j++ {
			c.rk[r][j] = reg[(2*j+1)%n]
		}
		rc := nextCon()
		reg[1] ^= twineSBox[reg[0]]
		reg[4] ^= twineSBox[reg[16%n]]
		reg[7] ^= rc >> 3
		reg[19%n] ^= rc & 7
		rot := append(append([]byte{}, reg[3:]...), reg[:3]...)
		copy(reg, rot)
	}
	return &c
}

func (c *refTWINE) BlockSize() int { return 8 }

func toNibbles(src []byte) [16]byte {
	var x [16]byte
	for i := 0; i < 8; i++ {
		x[2*i] = src[i] >> 4
		x[2*i+1] = src[i] & 0xF
	}
	return x
}

func fromNibbles(dst []byte, x [16]byte) {
	for i := 0; i < 8; i++ {
		dst[i] = x[2*i]<<4 | x[2*i+1]
	}
}

func (c *refTWINE) Encrypt(dst, src []byte) {
	x := toNibbles(src)
	for r := 0; r < twineRounds; r++ {
		for j := 0; j < 8; j++ {
			x[2*j+1] ^= twineSBox[x[2*j]^c.rk[r][j]]
		}
		if r != twineRounds-1 {
			var y [16]byte
			for i := 0; i < 16; i++ {
				y[twineShuffle[i]] = x[i]
			}
			x = y
		}
	}
	fromNibbles(dst, x)
}

func (c *refTWINE) Decrypt(dst, src []byte) {
	x := toNibbles(src)
	for r := twineRounds - 1; r >= 0; r-- {
		for j := 0; j < 8; j++ {
			x[2*j+1] ^= twineSBox[x[2*j]^c.rk[r][j]]
		}
		if r != 0 {
			var y [16]byte
			for i := 0; i < 16; i++ {
				y[twineShuffleInv[i]] = x[i]
			}
			x = y
		}
	}
	fromNibbles(dst, x)
}

// ---------------------------------------------------------------------
// The differential oracle

// refCases pairs every table-driven cipher, at every key size, with its
// bit-serial reference.
var refCases = []struct {
	name   string
	keyLen int
	fast   func(key []byte) (cipher.Block, error)
	ref    func(key []byte) cipher.Block
}{
	{"DES", 8, NewDES, newRefDES},
	{"DESL", 8, NewDESL, newRefDESL},
	{"3DES/2-key", 16, NewTripleDES, newRefTripleDES},
	{"3DES/3-key", 24, NewTripleDES, newRefTripleDES},
	{"Iceberg", 16, NewIceberg, newRefIceberg},
	{"Pride", 16, NewPride, newRefPride},
	{"TWINE-80", 10, NewTWINE, newRefTWINE},
	{"TWINE-128", 16, NewTWINE, newRefTWINE},
}

// matchReference encrypts and decrypts blk with case i's table-driven
// cipher and its reference under key, and reports the first difference.
func matchReference(t *testing.T, i int, key, blk []byte) {
	t.Helper()
	rc := refCases[i]
	fast, err := rc.fast(key)
	if err != nil {
		t.Fatalf("%s: %v", rc.name, err)
	}
	ref := rc.ref(key)
	for _, dir := range []struct {
		name      string
		fast, ref func(dst, src []byte)
	}{
		{"Encrypt", fast.Encrypt, ref.Encrypt},
		{"Decrypt", fast.Decrypt, ref.Decrypt},
	} {
		var got, want [8]byte
		dir.fast(got[:], blk)
		dir.ref(want[:], blk)
		if got != want {
			t.Fatalf("%s %s(key %x, %x) = %x, reference %x", rc.name, dir.name, key, blk, got, want)
		}
		// In place, as the benchmarks and the chained digests call it.
		var inPlace [8]byte
		copy(inPlace[:], blk)
		dir.fast(inPlace[:], inPlace[:])
		if inPlace != want {
			t.Fatalf("%s in-place %s(key %x, %x) = %x, reference %x", rc.name, dir.name, key, blk, inPlace, want)
		}
	}
}

// TestCiphersMatchReference checks every table-driven cipher against its
// bit-serial reference, in both directions, over edge-case and seeded
// random keys and blocks.
func TestCiphersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260417))
	for i, rc := range refCases {
		keys := [][]byte{make([]byte, rc.keyLen), bytes.Repeat([]byte{0xFF}, rc.keyLen)}
		for k := 0; k < 100; k++ {
			key := make([]byte, rc.keyLen)
			rng.Read(key)
			keys = append(keys, key)
		}
		for _, key := range keys {
			blocks := [][]byte{make([]byte, 8), bytes.Repeat([]byte{0xFF}, 8)}
			for b := 0; b < 8; b++ {
				blk := make([]byte, 8)
				rng.Read(blk)
				blocks = append(blocks, blk)
			}
			for _, blk := range blocks {
				matchReference(t, i, key, blk)
			}
		}
	}
}

// FuzzCipherMatchesReference feeds arbitrary keys and blocks to every
// table-driven cipher and its reference. The selector picks the cipher;
// key and block are zero-padded or truncated to the cipher's sizes.
func FuzzCipherMatchesReference(f *testing.F) {
	for i, rc := range refCases {
		f.Add(uint8(i), bytes.Repeat([]byte{byte(0x11 * i)}, rc.keyLen), []byte("8 bytes!"))
	}
	f.Fuzz(func(t *testing.T, sel uint8, key, blk []byte) {
		i := int(sel) % len(refCases)
		k := make([]byte, refCases[i].keyLen)
		copy(k, key)
		var b [8]byte
		copy(b[:], blk)
		matchReference(t, i, k, b[:])
	})
}
