// Package lwc implements the lightweight cryptographic algorithms
// enumerated in Table III of the XLF paper (ICDCS 2019), which itself
// follows NIST IR 8114 ("Report on Lightweight Cryptography").
//
// Every cipher implements the standard crypto/cipher.Block interface so the
// stdlib modes (CTR, CBC, ...) compose with them, and registers metadata
// (key size, block size, structure, rounds) matching the paper's table. The
// registry drives both the Table III reproduction bench and the
// device-layer feasibility model: XLF's device layer picks the strongest
// cipher a device's cycle budget can afford.
//
// Implementation fidelity: AES, DES, 3DES, TEA, XTEA, RC5, PRESENT, HIGHT
// and LEA are implemented from their published specifications and checked
// against published known-answer tests or the standard library (AES is
// crypto/aes; DES and 3DES are cross-checked against crypto/des). DESL
// uses its published S-box but has no published vectors. SEED, TWINE,
// PRIDE, ICEBERG and Hummingbird-2 are structure-faithful
// reimplementations (correct block/key sizes, round structure, and design
// family per Table III) validated by round-trip, key-sensitivity and
// avalanche property tests; see DESIGN.md.
package lwc

import (
	"crypto/cipher"
	"errors"
	"fmt"
	"sort"
)

// KeySizeError is returned by cipher constructors when the key length is
// not supported by the algorithm.
type KeySizeError struct {
	Algorithm string
	Len       int
}

func (e KeySizeError) Error() string {
	return fmt.Sprintf("lwc: invalid %s key size %d", e.Algorithm, e.Len)
}

// Structure is the block cipher design family, as categorised in Table III.
type Structure string

// Design families named by the paper's Table III.
const (
	SPN     Structure = "SPN"     // substitution-permutation network
	Feistel Structure = "Feistel" // classic Feistel network
	GFS     Structure = "GFS"     // generalized Feistel structure
	ARX     Structure = "ARX"     // add-rotate-xor (LEA; the paper files it under Feistel)
)

// Info describes one row of Table III plus what is needed to instantiate
// the algorithm and cost it on a constrained device.
type Info struct {
	// Name is the algorithm name as printed in Table III.
	Name string
	// KeySizes lists supported key sizes in bits.
	KeySizes []int
	// BlockSize is the block size in bits.
	BlockSize int
	// Structure is the design family column of Table III.
	Structure Structure
	// Rounds describes the round count column (may depend on key size).
	Rounds string
	// RoundsFor returns the concrete round count for a key size in bits.
	RoundsFor func(keyBits int) int
	// New constructs the cipher for the given key.
	New func(key []byte) (cipher.Block, error)
	// CyclesPerByte is a software cost estimate (cycles per byte on a small
	// MCU-class core) used by the device-layer feasibility model. Values
	// are relative, calibrated so AES-128 software = 160 c/B on an 8/16-bit
	// class core, in line with the NIST IR 8114 framing that lightweight
	// designs trade security margin for cycle and memory footprint.
	CyclesPerByte float64
	// RAMBytes approximates working RAM for the key schedule plus state.
	RAMBytes int
	// Verified reports whether the implementation carries published
	// known-answer tests (true) or is a structure-faithful reimplementation
	// validated by property tests only (false).
	Verified bool
}

// SupportsKeyBits reports whether the algorithm accepts a key of the given
// bit length.
func (in Info) SupportsKeyBits(bits int) bool {
	for _, k := range in.KeySizes {
		if k == bits {
			return true
		}
	}
	return false
}

// DefaultKeyBits returns the algorithm's smallest supported key size, which
// is what a constrained device would provision.
func (in Info) DefaultKeyBits() int {
	if len(in.KeySizes) == 0 {
		return 0
	}
	min := in.KeySizes[0]
	for _, k := range in.KeySizes[1:] {
		if k < min {
			min = k
		}
	}
	return min
}

// Registry holds the Table III algorithm set. The zero value is empty; use
// NewRegistry for the full paper table.
type Registry struct {
	byName map[string]Info
	order  []string
}

// NewRegistry returns a registry populated with every algorithm in
// Table III of the paper, in the table's row order.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]Info)}
	for _, in := range tableIII() {
		r.mustAdd(in)
	}
	return r
}

func (r *Registry) mustAdd(in Info) {
	if err := r.Add(in); err != nil {
		panic(err)
	}
}

// Add registers an algorithm. It fails on duplicate names or incomplete
// entries.
func (r *Registry) Add(in Info) error {
	switch {
	case in.Name == "":
		return errors.New("lwc: Add: empty algorithm name")
	case in.New == nil:
		return fmt.Errorf("lwc: Add %s: nil constructor", in.Name)
	case len(in.KeySizes) == 0:
		return fmt.Errorf("lwc: Add %s: no key sizes", in.Name)
	case in.BlockSize <= 0:
		return fmt.Errorf("lwc: Add %s: bad block size %d", in.Name, in.BlockSize)
	}
	if _, dup := r.byName[in.Name]; dup {
		return fmt.Errorf("lwc: Add %s: duplicate algorithm", in.Name)
	}
	r.byName[in.Name] = in
	r.order = append(r.order, in.Name)
	return nil
}

// Lookup returns the Info for a registered algorithm name.
func (r *Registry) Lookup(name string) (Info, bool) {
	in, ok := r.byName[name]
	return in, ok
}

// Names returns the registered algorithm names in registration (table row)
// order. The returned slice is a copy.
func (r *Registry) Names() []string {
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// All returns every registered Info in table row order.
func (r *Registry) All() []Info {
	out := make([]Info, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// ByCost returns the registered algorithms sorted by ascending
// CyclesPerByte; the device layer uses this to pick the cheapest cipher
// meeting a policy's requirements.
func (r *Registry) ByCost() []Info {
	out := r.All()
	sort.SliceStable(out, func(i, j int) bool { return out[i].CyclesPerByte < out[j].CyclesPerByte })
	return out
}

// New instantiates a registered algorithm with the given key.
func (r *Registry) New(name string, key []byte) (cipher.Block, error) {
	in, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("lwc: unknown algorithm %q", name)
	}
	return in.New(key)
}

// tableIII lists the algorithms exactly as the paper's Table III does
// (including DES's listed "54"-bit effective key, which we normalise to the
// standard 56-bit effective / 64-bit encoded form).
func tableIII() []Info {
	fixed := func(n int) func(int) int { return func(int) int { return n } }
	return []Info{
		{
			Name: "AES", KeySizes: []int{128, 192, 256}, BlockSize: 128,
			Structure: SPN, Rounds: "10/12/14",
			RoundsFor: func(k int) int { return 6 + k/32 },
			New:       newAES, CyclesPerByte: 160, RAMBytes: 240 + 16, Verified: true,
		},
		{
			Name: "HIGHT", KeySizes: []int{128}, BlockSize: 64,
			Structure: GFS, Rounds: "32", RoundsFor: fixed(32),
			New: NewHIGHT, CyclesPerByte: 94, RAMBytes: 136 + 8, Verified: true,
		},
		{
			Name: "PRESENT", KeySizes: []int{80, 128}, BlockSize: 64,
			Structure: SPN, Rounds: "31", RoundsFor: fixed(31),
			New: NewPRESENT, CyclesPerByte: 130, RAMBytes: 256 + 8, Verified: true,
		},
		{
			Name: "RC5", KeySizes: []int{128}, BlockSize: 64,
			Structure: Feistel, Rounds: "1..255 (12 typical)", RoundsFor: fixed(12),
			New:           func(key []byte) (cipher.Block, error) { return NewRC5(key, 12) },
			CyclesPerByte: 60, RAMBytes: 104 + 8, Verified: true,
		},
		{
			Name: "TEA", KeySizes: []int{128}, BlockSize: 64,
			Structure: Feistel, Rounds: "64", RoundsFor: fixed(64),
			New: NewTEA, CyclesPerByte: 52, RAMBytes: 16 + 8, Verified: true,
		},
		{
			Name: "XTEA", KeySizes: []int{128}, BlockSize: 64,
			Structure: Feistel, Rounds: "64", RoundsFor: fixed(64),
			New: NewXTEA, CyclesPerByte: 57, RAMBytes: 16 + 8, Verified: true,
		},
		{
			Name: "LEA", KeySizes: []int{128, 192, 256}, BlockSize: 128,
			Structure: Feistel, Rounds: "24/28/32",
			RoundsFor: func(k int) int { return 24 + 4*((k-128)/64) },
			New:       NewLEA, CyclesPerByte: 45, RAMBytes: 384 + 16, Verified: true,
		},
		{
			Name: "DES", KeySizes: []int{64}, BlockSize: 64,
			Structure: Feistel, Rounds: "16", RoundsFor: fixed(16),
			New: NewDES, CyclesPerByte: 220, RAMBytes: 128 + 8, Verified: true,
		},
		{
			Name: "SEED", KeySizes: []int{128}, BlockSize: 128,
			Structure: Feistel, Rounds: "16", RoundsFor: fixed(16),
			New: NewSEED, CyclesPerByte: 190, RAMBytes: 128 + 16, Verified: false,
		},
		{
			Name: "TWINE", KeySizes: []int{80, 128}, BlockSize: 64,
			Structure: Feistel, Rounds: "36 (table lists 32)", RoundsFor: fixed(36),
			New: NewTWINE, CyclesPerByte: 110, RAMBytes: 144 + 8, Verified: false,
		},
		{
			Name: "DESL", KeySizes: []int{64}, BlockSize: 64,
			Structure: Feistel, Rounds: "16", RoundsFor: fixed(16),
			New: NewDESL, CyclesPerByte: 200, RAMBytes: 96 + 8, Verified: false,
		},
		{
			Name: "3DES", KeySizes: []int{128, 192}, BlockSize: 64,
			Structure: Feistel, Rounds: "48", RoundsFor: fixed(48),
			New: NewTripleDES, CyclesPerByte: 640, RAMBytes: 384 + 8, Verified: true,
		},
		{
			Name: "Hummingbird", KeySizes: []int{256}, BlockSize: 16,
			Structure: SPN, Rounds: "4", RoundsFor: fixed(4),
			New: NewHummingbird, CyclesPerByte: 80, RAMBytes: 48 + 2, Verified: false,
		},
		{
			Name: "Hummingbird2", KeySizes: []int{256}, BlockSize: 16,
			Structure: SPN, Rounds: "4", RoundsFor: fixed(4),
			New: NewHummingbird2, CyclesPerByte: 75, RAMBytes: 48 + 2, Verified: false,
		},
		{
			Name: "Iceberg", KeySizes: []int{128}, BlockSize: 64,
			Structure: SPN, Rounds: "16", RoundsFor: fixed(16),
			New: NewIceberg, CyclesPerByte: 150, RAMBytes: 160 + 8, Verified: false,
		},
		{
			Name: "Pride", KeySizes: []int{128}, BlockSize: 64,
			Structure: SPN, Rounds: "20", RoundsFor: fixed(20),
			New: NewPride, CyclesPerByte: 85, RAMBytes: 64 + 8, Verified: false,
		},
	}
}
