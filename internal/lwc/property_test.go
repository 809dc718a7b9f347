package lwc

import (
	"bytes"
	"crypto/cipher"
	stddes "crypto/des"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRoundTripAllAlgorithms checks Decrypt(Encrypt(p)) == p for every
// registered algorithm at every supported key size, over random inputs.
func TestRoundTripAllAlgorithms(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	for _, info := range reg.All() {
		for _, kb := range info.KeySizes {
			info, kb := info, kb
			t.Run(info.Name+"/"+itoa(kb), func(t *testing.T) {
				key := make([]byte, kb/8)
				for trial := 0; trial < 50; trial++ {
					rng.Read(key)
					blk, err := info.New(key)
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					if got := blk.BlockSize() * 8; got != info.BlockSize {
						t.Fatalf("BlockSize = %d bits, registry says %d", got, info.BlockSize)
					}
					pt := make([]byte, blk.BlockSize())
					rng.Read(pt)
					ct := make([]byte, len(pt))
					back := make([]byte, len(pt))
					blk.Encrypt(ct, pt)
					blk.Decrypt(back, ct)
					if !bytes.Equal(back, pt) {
						t.Fatalf("roundtrip failed: pt=%x ct=%x back=%x key=%x", pt, ct, back, key)
					}
				}
			})
		}
	}
}

// TestEncryptionIsPermutation checks injectivity on a sample: distinct
// plaintexts never map to the same ciphertext.
func TestEncryptionIsPermutation(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(11))
	for _, info := range reg.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			key := make([]byte, info.DefaultKeyBits()/8)
			rng.Read(key)
			blk, err := info.New(key)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			seen := make(map[string]string)
			pt := make([]byte, blk.BlockSize())
			ct := make([]byte, blk.BlockSize())
			for trial := 0; trial < 300; trial++ {
				rng.Read(pt)
				blk.Encrypt(ct, pt)
				if prev, ok := seen[string(ct)]; ok && prev != string(pt) {
					t.Fatalf("collision: %x and %x both encrypt to %x", prev, pt, ct)
				}
				seen[string(ct)] = string(pt)
			}
		})
	}
}

// TestKeySensitivity verifies that flipping any single key bit changes the
// ciphertext of a fixed plaintext (no equivalent neighbouring keys). DES
// variants are exempt for parity bits, which the algorithm ignores by
// design.
func TestKeySensitivity(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(13))
	parityExempt := map[string]bool{"DES": true, "3DES": true, "DESL": true}
	for _, info := range reg.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			key := make([]byte, info.DefaultKeyBits()/8)
			rng.Read(key)
			blk, err := info.New(key)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			pt := make([]byte, blk.BlockSize())
			rng.Read(pt)
			base := make([]byte, blk.BlockSize())
			blk.Encrypt(base, pt)

			changed := 0
			total := 0
			for i := range key {
				for b := 0; b < 8; b++ {
					if parityExempt[info.Name] && b == 0 {
						continue // LSB of each DES key byte is parity
					}
					total++
					mut := make([]byte, len(key))
					copy(mut, key)
					mut[i] ^= 1 << uint(b)
					mb, err := info.New(mut)
					if err != nil {
						t.Fatalf("New(mutated): %v", err)
					}
					ct := make([]byte, blk.BlockSize())
					mb.Encrypt(ct, pt)
					if !bytes.Equal(ct, base) {
						changed++
					}
				}
			}
			// Every effective key bit must matter. Hummingbird's 16-bit
			// block can collide by chance on a tiny output space, so allow
			// a small slack for 16-bit blocks.
			minOK := total
			if info.BlockSize <= 16 {
				minOK = total - 2
			}
			if changed < minOK {
				t.Errorf("only %d/%d key-bit flips changed the ciphertext", changed, total)
			}
		})
	}
}

// TestAvalanche verifies that flipping one plaintext bit flips a healthy
// fraction of ciphertext bits on average (> 25% for 64-bit+ blocks).
func TestAvalanche(t *testing.T) {
	reg := NewRegistry()
	rng := rand.New(rand.NewSource(17))
	for _, info := range reg.All() {
		info := info
		if info.BlockSize < 64 {
			continue // 16-bit blocks have too little room for this metric
		}
		t.Run(info.Name, func(t *testing.T) {
			key := make([]byte, info.DefaultKeyBits()/8)
			rng.Read(key)
			blk, err := info.New(key)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			n := blk.BlockSize()
			var flipped, total int
			for trial := 0; trial < 100; trial++ {
				pt := make([]byte, n)
				rng.Read(pt)
				base := make([]byte, n)
				blk.Encrypt(base, pt)
				mut := make([]byte, n)
				copy(mut, pt)
				bit := rng.Intn(n * 8)
				mut[bit/8] ^= 1 << uint(bit%8)
				ct := make([]byte, n)
				blk.Encrypt(ct, mut)
				for i := range ct {
					flipped += popcount8(ct[i] ^ base[i])
				}
				total += n * 8
			}
			ratio := float64(flipped) / float64(total)
			if ratio < 0.25 || ratio > 0.75 {
				t.Errorf("avalanche ratio = %.3f, want in [0.25, 0.75]", ratio)
			}
		})
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// matchesStdlib reports whether ours and ref agree on Encrypt and on
// Decrypt of one block.
func matchesStdlib(ours, ref cipher.Block, blk []byte) bool {
	a := make([]byte, 8)
	b := make([]byte, 8)
	ours.Encrypt(a, blk)
	ref.Encrypt(b, blk)
	if !bytes.Equal(a, b) {
		return false
	}
	ours.Decrypt(a, blk)
	ref.Decrypt(b, blk)
	return bytes.Equal(a, b)
}

// TestDESMatchesStdlib cross-checks the from-scratch DES and 3DES against
// crypto/des over random keys and blocks, in both directions.
func TestDESMatchesStdlib(t *testing.T) {
	f := func(key [8]byte, blk [8]byte) bool {
		ours, err := NewDES(key[:])
		if err != nil {
			return false
		}
		ref, err := stddes.NewCipher(key[:])
		if err != nil {
			return false
		}
		return matchesStdlib(ours, ref, blk[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTripleDESMatchesStdlib covers three-key keys and two-key keys
// (K3 = K1, which crypto/des takes as the 24-byte key K1||K2||K1).
func TestTripleDESMatchesStdlib(t *testing.T) {
	f := func(key [24]byte, blk [8]byte) bool {
		ours, err := NewTripleDES(key[:])
		if err != nil {
			return false
		}
		ref, err := stddes.NewTripleDESCipher(key[:])
		if err != nil {
			return false
		}
		if !matchesStdlib(ours, ref, blk[:]) {
			return false
		}
		ours2, err := NewTripleDES(key[:16])
		if err != nil {
			return false
		}
		ref2, err := stddes.NewTripleDESCipher(append(key[:16:16], key[:8]...))
		if err != nil {
			return false
		}
		return matchesStdlib(ours2, ref2, blk[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRC5RoundsParameter exercises non-default round counts.
func TestRC5RoundsParameter(t *testing.T) {
	key := bytes.Repeat([]byte{0xAB}, 16)
	for _, rounds := range []int{1, 8, 20, 255} {
		blk, err := NewRC5(key, rounds)
		if err != nil {
			t.Fatalf("NewRC5(r=%d): %v", rounds, err)
		}
		pt := []byte{1, 2, 3, 4, 5, 6, 7, 8}
		ct := make([]byte, 8)
		back := make([]byte, 8)
		blk.Encrypt(ct, pt)
		blk.Decrypt(back, ct)
		if !bytes.Equal(back, pt) {
			t.Errorf("RC5 r=%d roundtrip failed", rounds)
		}
	}
	if _, err := NewRC5(key, 0); err == nil {
		t.Error("NewRC5(r=0) accepted")
	}
	if _, err := NewRC5(key, 256); err == nil {
		t.Error("NewRC5(r=256) accepted")
	}
}

// TestHummingbirdRotorStream checks the stateful rotor mode decrypts a
// stream in lockstep and is position-dependent.
func TestHummingbirdRotorStream(t *testing.T) {
	key := bytes.Repeat([]byte{0x5A}, 32)
	iv := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	enc, err := NewHummingbirdRotor(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewHummingbirdRotor(key, iv)
	if err != nil {
		t.Fatal(err)
	}
	words := []uint16{0x0000, 0x0000, 0xBEEF, 0x1234, 0x0000}
	var cts []uint16
	for _, w := range words {
		cts = append(cts, enc.EncryptWord(w))
	}
	if cts[0] == cts[1] {
		t.Error("rotor mode produced identical ciphertexts for repeated plaintext words")
	}
	for i, ct := range cts {
		if got := dec.DecryptWord(ct); got != words[i] {
			t.Errorf("word %d: decrypt = %04x, want %04x", i, got, words[i])
		}
	}
}

// TestKeySizeErrors verifies constructors reject bad key lengths.
func TestKeySizeErrors(t *testing.T) {
	reg := NewRegistry()
	for _, info := range reg.All() {
		if info.Name == "RC5" {
			continue // RC5 accepts any key of 0..255 bytes by design
		}
		if _, err := info.New(make([]byte, 3)); err == nil {
			t.Errorf("%s accepted a 3-byte key", info.Name)
		}
	}
	var kse KeySizeError
	_, err := NewTEA(make([]byte, 5))
	if !asKeySizeError(err, &kse) || kse.Len != 5 {
		t.Errorf("NewTEA error = %v, want KeySizeError with Len 5", err)
	}
}

func asKeySizeError(err error, out *KeySizeError) bool {
	e, ok := err.(KeySizeError)
	if ok {
		*out = e
	}
	return ok
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
