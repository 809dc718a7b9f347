package lwc

import (
	"crypto/cipher"
	"encoding/binary"
)

// presentSBox is the 4-bit PRESENT S-box (Bogdanov et al., CHES 2007).
var presentSBox = [16]byte{
	0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
	0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2,
}

var presentSBoxInv = invert4(presentSBox)

// invert4 returns the inverse of a 4-bit S-box.
func invert4(s [16]byte) [16]byte {
	var inv [16]byte
	for i, v := range s {
		inv[v] = byte(i)
	}
	return inv
}

// nibbleSubTab returns the byte-wide table of a 4-bit S-box: entry b is b
// with both of its nibbles substituted.
func nibbleSubTab(box *[16]byte) (t [256]byte) {
	for b := range t {
		t[b] = box[b>>4]<<4 | box[b&0xF]
	}
	return t
}

// subBytes replaces each byte of s by its entry in t.
func subBytes(t *[256]byte, s uint64) uint64 {
	return uint64(t[byte(s)]) | uint64(t[byte(s>>8)])<<8 |
		uint64(t[byte(s>>16)])<<16 | uint64(t[byte(s>>24)])<<24 |
		uint64(t[byte(s>>32)])<<32 | uint64(t[byte(s>>40)])<<40 |
		uint64(t[byte(s>>48)])<<48 | uint64(t[byte(s>>56)])<<56
}

const presentRounds = 31

// rotl80 rotates an 80-bit value left by n bits. The value is represented
// as hi (bits 79..16) and lo (bits 15..0); only the low 16 bits of lo are
// significant.
func rotl80(hi, lo uint64, n uint) (uint64, uint64) {
	var nh, nl uint64
	bit := func(j uint) uint64 {
		if j < 16 {
			return lo >> j & 1
		}
		return hi >> (j - 16) & 1
	}
	for i := uint(0); i < 80; i++ {
		b := bit((i + 80 - n) % 80)
		if i < 16 {
			nl |= b << i
		} else {
			nh |= b << (i - 16)
		}
	}
	return nh, nl
}

type present struct {
	rk [presentRounds + 1]uint64 // round keys K1..K32
}

var _ cipher.Block = (*present)(nil)

// NewPRESENT returns the PRESENT block cipher with an 80- or 128-bit key
// and a 64-bit block. PRESENT is the archetypal ultra-lightweight SPN and
// the basis of the ISO/IEC 29192-2 lightweight cipher standard.
func NewPRESENT(key []byte) (cipher.Block, error) {
	switch len(key) {
	case 10:
		return newPresent80(key), nil
	case 16:
		return newPresent128(key), nil
	default:
		return nil, KeySizeError{Algorithm: "PRESENT", Len: len(key)}
	}
}

func newPresent80(key []byte) *present {
	// The 80-bit key register is kept as hi (64 bits, key bits 79..16) and
	// lo (16 bits, key bits 15..0).
	hi := binary.BigEndian.Uint64(key[0:8])
	lo := uint64(binary.BigEndian.Uint16(key[8:10]))

	var c present
	for r := 1; r <= presentRounds+1; r++ {
		c.rk[r-1] = hi // leftmost 64 bits
		if r == presentRounds+1 {
			break
		}
		hi, lo = rotl80(hi, lo, 61)
		// S-box on the 4 most significant bits (bits 79..76 = hi 63..60).
		top := byte(hi >> 60)
		hi = hi&^(0xF<<60) | uint64(presentSBox[top])<<60
		// XOR round counter into key bits 19..15 (hi bits 3..0 hold key
		// bits 19..16; lo bit 15 holds key bit 15).
		rc := uint64(r)
		hi ^= rc >> 1
		lo ^= (rc & 1) << 15
	}
	return &c
}

func newPresent128(key []byte) *present {
	c := present128(binary.BigEndian.Uint64(key[0:8]), binary.BigEndian.Uint64(key[8:16]))
	return &c
}

// present128 expands a 128-bit key, given as its high and low halves,
// into a key schedule held by value.
func present128(hi, lo uint64) present {
	var c present
	for r := 1; r <= presentRounds+1; r++ {
		c.rk[r-1] = hi
		if r == presentRounds+1 {
			break
		}
		// Rotate the 128-bit register left by 61.
		nh := hi<<61 | lo>>3
		nl := lo<<61 | hi>>3
		hi, lo = nh, nl
		// S-box on the two most significant nibbles.
		hi = hi&^(0xFF<<56) |
			uint64(presentSBox[byte(hi>>60)])<<60 |
			uint64(presentSBox[byte(hi>>56)&0xF])<<56
		// XOR round counter into bits 66..62.
		rc := uint64(r)
		hi ^= rc >> 2
		lo ^= (rc & 3) << 62
	}
	return c
}

func (c *present) BlockSize() int { return 8 }

// The PRESENT bit permutation moves bit i (0 = LSB) to position
// i*16 mod 63, with bit 63 fixed. Bit-at-a-time application costs ~64
// shifts per call; instead we precompute, for each of the 8 byte lanes,
// the spread image of every byte value — the permutation is then 8 table
// lookups OR-ed together. The tables are built once at package
// initialisation and immutable afterwards.
var presentPermTab, presentPermInvTab = buildPresentPermTabs()

func buildPresentPermTabs() (fwd, inv [8][256]uint64) {
	permBit := func(i int) int {
		if i == 63 {
			return 63
		}
		return i * 16 % 63
	}
	for lane := 0; lane < 8; lane++ {
		for b := 0; b < 256; b++ {
			var f, v uint64
			for bit := 0; bit < 8; bit++ {
				if b>>uint(bit)&1 == 0 {
					continue
				}
				src := lane*8 + bit
				f |= 1 << uint(permBit(src))
				// Inverse: bit src in the output came from permBit^-1;
				// equivalently, place src's bit where it maps FROM.
				for j := 0; j < 64; j++ {
					if permBit(j) == src {
						v |= 1 << uint(j)
						break
					}
				}
			}
			fwd[lane][b] = f
			inv[lane][b] = v
		}
	}
	return fwd, inv
}

// presentSPTab fuses the S-box layer into the forward permutation
// tables: lane l's entry for byte b is the permuted image of b with both
// of its nibbles substituted. The S-box works nibble by nibble and the
// permutation bit by bit, so a round's substitution and permutation is
// 8 lookups OR-ed together.
var presentSPTab = buildPresentSPTab()

func buildPresentSPTab() (t [8][256]uint64) {
	for lane := range t {
		for b := range t[lane] {
			sub := presentSBox[b>>4]<<4 | presentSBox[b&0xF]
			t[lane][b] = presentPermTab[lane][sub]
		}
	}
	return t
}

func presentSubPermute(s uint64) uint64 {
	return presentSPTab[0][byte(s)] |
		presentSPTab[1][byte(s>>8)] |
		presentSPTab[2][byte(s>>16)] |
		presentSPTab[3][byte(s>>24)] |
		presentSPTab[4][byte(s>>32)] |
		presentSPTab[5][byte(s>>40)] |
		presentSPTab[6][byte(s>>48)] |
		presentSPTab[7][byte(s>>56)]
}

func presentPermuteInv(s uint64) uint64 {
	return presentPermInvTab[0][byte(s)] |
		presentPermInvTab[1][byte(s>>8)] |
		presentPermInvTab[2][byte(s>>16)] |
		presentPermInvTab[3][byte(s>>24)] |
		presentPermInvTab[4][byte(s>>32)] |
		presentPermInvTab[5][byte(s>>40)] |
		presentPermInvTab[6][byte(s>>48)] |
		presentPermInvTab[7][byte(s>>56)]
}

func presentSub(s uint64, box *[16]byte) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= uint64(box[s>>uint(4*i)&0xF]) << uint(4*i)
	}
	return out
}

func (c *present) Encrypt(dst, src []byte) {
	checkBlock("PRESENT", 8, dst, src)
	binary.BigEndian.PutUint64(dst, c.encrypt(binary.BigEndian.Uint64(src)))
}

func (c *present) encrypt(s uint64) uint64 {
	for r := 0; r < presentRounds; r++ {
		s = presentSubPermute(s ^ c.rk[r])
	}
	return s ^ c.rk[presentRounds]
}

func (c *present) Decrypt(dst, src []byte) {
	checkBlock("PRESENT", 8, dst, src)
	s := binary.BigEndian.Uint64(src)
	s ^= c.rk[presentRounds]
	for r := presentRounds - 1; r >= 0; r-- {
		s = presentPermuteInv(s)
		s = presentSub(s, &presentSBoxInv)
		s ^= c.rk[r]
	}
	binary.BigEndian.PutUint64(dst, s)
}
