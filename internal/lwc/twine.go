package lwc

import (
	"crypto/cipher"
	"encoding/binary"
)

// TWINE (Suzaki et al., SAC 2012) is a 64-bit block cipher with 80- or
// 128-bit keys, built as a 16-branch Type-2 generalized Feistel network
// with 36 rounds (Table III lists 32). This is a structure-faithful
// reimplementation: the S-box and block shuffle follow the published
// design; the key schedule follows the published shape (nibble register,
// S-box injections, 6-bit round constants from an LFSR) with reconstructed
// extraction positions. Validated by property tests.

// twineSBox is the TWINE 4-bit S-box.
var twineSBox = [16]byte{
	0xC, 0x0, 0xF, 0xA, 0x2, 0xB, 0x9, 0x5,
	0x8, 0x3, 0xD, 0x7, 0x1, 0xE, 0x6, 0x4,
}

// twineShuffle is the block shuffle pi: nibble i moves to twineShuffle[i].
var twineShuffle = [16]byte{5, 0, 1, 4, 7, 12, 3, 8, 13, 6, 9, 2, 15, 10, 11, 14}

var twineShuffleInv = invert16(twineShuffle)

func invert16(p [16]byte) [16]byte {
	var inv [16]byte
	for i, v := range p {
		inv[v] = byte(i)
	}
	return inv
}

const twineRounds = 36

// TWINE's state is a uint64 holding nibble x[i] at bits 60-4i. A round
// XORs S(x[2j]^k[j]) into x[2j+1] for j = 0..7 and then moves nibble i to
// position twineShuffle[i]. Each byte of the state is one (x[2j], x[2j+1])
// pair, so the round is computed from tables built once at package
// initialisation: twineFTab maps byte b = (hi, lo) to (hi, lo^S(hi)),
// and byte lane j's entry in a round table is that image with its two
// nibbles moved by the shuffle. The round key is packed into the even
// nibbles, so XORing it into the state before the lookups feeds
// x[2j]^k[j] to the S-box; XORing its shuffled copy afterwards restores
// x[2j]. twineEncTab shuffles forwards, twineDecTab backwards.
var (
	twineFTab   = buildTWINEFTab()
	twineEncTab = buildTWINETab(&twineShuffle)
	twineDecTab = buildTWINETab(&twineShuffleInv)
)

func buildTWINEFTab() (t [256]byte) {
	for b := range t {
		t[b] = byte(b) ^ twineSBox[b>>4]
	}
	return t
}

func buildTWINETab(pi *[16]byte) (t [8][256]uint64) {
	for j := range t {
		for b := range t[j] {
			t[j][b] = twineShuffleNibbles(pi, uint64(twineFTab[b])<<uint(56-8*j))
		}
	}
	return t
}

// twineShuffleNibbles moves nibble i of x to position pi[i].
func twineShuffleNibbles(pi *[16]byte, x uint64) uint64 {
	var y uint64
	for i, p := range pi {
		y |= (x >> uint(60-4*i) & 0xF) << uint(60-4*int(p))
	}
	return y
}

func twineRound(t *[8][256]uint64, s uint64) uint64 {
	return t[0][byte(s>>56)] | t[1][byte(s>>48)] | t[2][byte(s>>40)] | t[3][byte(s>>32)] |
		t[4][byte(s>>24)] | t[5][byte(s>>16)] | t[6][byte(s>>8)] | t[7][byte(s)]
}

// twineF applies a round's F functions without the shuffle.
func twineF(s, k uint64) uint64 {
	return subBytes(&twineFTab, s^k) ^ k
}

type twine struct {
	rk  [twineRounds]uint64 // round keys packed into the even nibbles
	erk [twineRounds]uint64 // rk shuffled forwards, for Encrypt
	drk [twineRounds]uint64 // rk shuffled backwards, for Decrypt
}

var _ cipher.Block = (*twine)(nil)

// NewTWINE returns TWINE-80 or TWINE-128 depending on key length.
func NewTWINE(key []byte) (cipher.Block, error) {
	switch len(key) {
	case 10, 16:
	default:
		return nil, KeySizeError{Algorithm: "TWINE", Len: len(key)}
	}

	// Key register as nibbles, high nibble first.
	reg := make([]byte, 0, len(key)*2)
	for _, b := range key {
		reg = append(reg, b>>4, b&0xF)
	}

	// 6-bit round constants from the LFSR x^6+x+1, state seeded to 1.
	con := byte(1)
	nextCon := func() byte {
		c := con
		fb := (con >> 5) ^ (con>>4)&1
		con = (con<<1 | fb&1) & 0x3F
		return c
	}

	var c twine
	n := len(reg)
	for r := 0; r < twineRounds; r++ {
		// Extract 8 round-key nibbles at fixed even positions.
		for j := 0; j < 8; j++ {
			c.rk[r] |= uint64(reg[(2*j+1)%n]) << uint(60-8*j)
		}
		c.erk[r] = twineShuffleNibbles(&twineShuffle, c.rk[r])
		c.drk[r] = twineShuffleNibbles(&twineShuffleInv, c.rk[r])
		// Inject round constant and S-box feedback, then rotate.
		rc := nextCon()
		reg[1] ^= twineSBox[reg[0]]
		reg[4] ^= twineSBox[reg[16%n]]
		reg[7] ^= rc >> 3
		reg[19%n] ^= rc & 7
		// Rotate the register left by 3 nibbles. Three is coprime with
		// both register lengths (20 and 32 nibbles), so every key nibble
		// visits every position and is eventually extracted into a round
		// key — a rotation sharing a factor with the register length
		// would leave whole orbits of key material unused.
		rot := append(append([]byte{}, reg[3:]...), reg[:3]...)
		copy(reg, rot)
	}
	return &c, nil
}

func (c *twine) BlockSize() int { return 8 }

func (c *twine) Encrypt(dst, src []byte) {
	checkBlock("TWINE", 8, dst, src)
	s := binary.BigEndian.Uint64(src)
	for r := 0; r < twineRounds-1; r++ {
		s = twineRound(&twineEncTab, s^c.rk[r]) ^ c.erk[r]
	}
	// The last round omits the shuffle.
	binary.BigEndian.PutUint64(dst, twineF(s, c.rk[twineRounds-1]))
}

func (c *twine) Decrypt(dst, src []byte) {
	checkBlock("TWINE", 8, dst, src)
	s := binary.BigEndian.Uint64(src)
	for r := twineRounds - 1; r > 0; r-- {
		s = twineRound(&twineDecTab, s^c.rk[r]) ^ c.drk[r]
	}
	binary.BigEndian.PutUint64(dst, twineF(s, c.rk[0]))
}
