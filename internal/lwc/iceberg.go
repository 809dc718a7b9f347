package lwc

import (
	"crypto/cipher"
	"encoding/binary"
)

// ICEBERG (Standaert et al., FSE 2004) is an involutional 64-bit SPN with
// a 128-bit key, designed for reconfigurable hardware: every layer is an
// involution so encryption and decryption share the datapath. This is a
// structure-faithful reimplementation — the involutional S-layer and
// P-layer are reconstructed (self-inverse by construction and verified by
// tests) rather than copied from the published tables. Validated by
// property tests.

const icebergRounds = 16

// icebergSBox is an involutive 4-bit S-box (fixed-point-free pairing),
// reconstructed: s[s[x]] == x for all x.
var icebergSBox = [16]byte{
	0x4, 0xA, 0xF, 0xC, 0x0, 0xD, 0x9, 0xB,
	0xE, 0x6, 0x1, 0x7, 0x3, 0x5, 0x8, 0x2,
}

// icebergPerm is an involutive bit permutation on 64 bits: positions are
// swapped in pairs (i <-> 63-i with an interleave), so the permutation is
// its own inverse.
var icebergPerm = func() [64]byte {
	var p [64]byte
	for i := 0; i < 64; i++ {
		p[i] = byte(i)
	}
	// Pair bit i with bit (i*7+11) mod 64 when unpaired, producing a
	// deterministic involution with no fixed points left unhandled.
	used := [64]bool{}
	for i := 0; i < 64; i++ {
		if used[i] {
			continue
		}
		j := (i*7 + 11) % 64
		for used[j] || j == i {
			j = (j + 1) % 64
		}
		p[i], p[j] = byte(j), byte(i)
		used[i], used[j] = true, true
	}
	return p
}()

// icebergSPTab fuses the S-layer into the P-layer: lane l's entry for
// byte b is the P-image of b with both of its nibbles substituted, placed
// at lane l. S(0) is not 0, so each entry substitutes only its own byte;
// a round's S- and P-layer is 8 lookups OR-ed together. Built once at
// package initialisation and immutable afterwards.
var (
	icebergSubTab = nibbleSubTab(&icebergSBox)
	icebergSPTab  = buildIcebergSPTab()
)

func buildIcebergSPTab() (t [8][256]uint64) {
	for lane := range t {
		for b := range t[lane] {
			t[lane][b] = icebergPermute(uint64(icebergSubTab[b]) << uint(8*lane))
		}
	}
	return t
}

func icebergSubPermute(s uint64) uint64 {
	return icebergSPTab[0][byte(s)] |
		icebergSPTab[1][byte(s>>8)] |
		icebergSPTab[2][byte(s>>16)] |
		icebergSPTab[3][byte(s>>24)] |
		icebergSPTab[4][byte(s>>32)] |
		icebergSPTab[5][byte(s>>40)] |
		icebergSPTab[6][byte(s>>48)] |
		icebergSPTab[7][byte(s>>56)]
}

type iceberg struct {
	rk [icebergRounds + 1]uint64
	// prk holds P(rk[r]), the round keys moved into the P-layer's output
	// domain, in which Decrypt runs.
	prk [icebergRounds + 1]uint64
}

var _ cipher.Block = (*iceberg)(nil)

// NewIceberg returns the ICEBERG cipher for a 16-byte key.
func NewIceberg(key []byte) (cipher.Block, error) {
	if len(key) != 16 {
		return nil, KeySizeError{Algorithm: "Iceberg", Len: len(key)}
	}
	hi := binary.BigEndian.Uint64(key[0:8])
	lo := binary.BigEndian.Uint64(key[8:16])
	var c iceberg
	for r := 0; r <= icebergRounds; r++ {
		// Round keys: alternate halves of the rotating 128-bit register,
		// diffused through the involutive S-layer so related keys do not
		// produce related schedules.
		if r%2 == 0 {
			c.rk[r] = icebergSub(hi ^ uint64(r)*0x9E3779B97F4A7C15)
		} else {
			c.rk[r] = icebergSub(lo ^ uint64(r)*0x9E3779B97F4A7C15)
		}
		// Rotate the 128-bit register left by 13.
		nh := hi<<13 | lo>>51
		nl := lo<<13 | hi>>51
		hi, lo = nh, nl
		c.prk[r] = icebergPermute(c.rk[r])
	}
	return &c, nil
}

func icebergSub(s uint64) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		out |= uint64(icebergSBox[s>>uint(4*i)&0xF]) << uint(4*i)
	}
	return out
}

func icebergPermute(s uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= (s >> uint(i) & 1) << uint(icebergPerm[i])
	}
	return out
}

func (c *iceberg) BlockSize() int { return 8 }

func (c *iceberg) Encrypt(dst, src []byte) {
	checkBlock("Iceberg", 8, dst, src)
	s := binary.BigEndian.Uint64(src)
	for r := 0; r < icebergRounds; r++ {
		s = icebergSubPermute(s ^ c.rk[r])
	}
	s ^= c.rk[icebergRounds]
	binary.BigEndian.PutUint64(dst, s)
}

// Decrypt applies the rounds in reverse: both layers are involutions, so
// round r undoes as s = S(P(s)) ^ rk[r]. Tracked through y = P(s), that
// is y = SP(y) ^ P(rk[r]), one fused-table round; P(s) itself is SP(S(s))
// because S is an involution.
func (c *iceberg) Decrypt(dst, src []byte) {
	checkBlock("Iceberg", 8, dst, src)
	s := binary.BigEndian.Uint64(src)
	y := icebergSubPermute(subBytes(&icebergSubTab, s)) ^ c.prk[icebergRounds]
	for r := icebergRounds - 1; r >= 0; r-- {
		y = icebergSubPermute(y) ^ c.prk[r]
	}
	binary.BigEndian.PutUint64(dst, icebergSubPermute(subBytes(&icebergSubTab, y)))
}
