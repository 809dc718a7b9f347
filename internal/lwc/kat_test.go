package lwc

import (
	"bytes"
	"crypto/cipher"
	"encoding/hex"
	"testing"
)

// katCase is a published known-answer test vector.
type katCase struct {
	name string
	mk   func(key []byte) (cipher.Block, error)
	key  string
	pt   string
	ct   string
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func katCases() []katCase {
	return []katCase{
		// TEA: all-zero vector from the reference implementation.
		{"TEA/zero", NewTEA,
			"00000000000000000000000000000000",
			"0000000000000000", "41ea3a0a94baa940"},
		// XTEA: all-zero vector from the reference implementation.
		{"XTEA/zero", NewXTEA,
			"00000000000000000000000000000000",
			"0000000000000000", "dee9d4d8f7131ed9"},
		// RC5-32/12/16 from Rivest's RC5 paper (chained tests 1-3: each
		// test's plaintext/key derive from the previous ciphertext).
		{"RC5/rivest1", func(k []byte) (cipher.Block, error) { return NewRC5(k, 12) },
			"00000000000000000000000000000000",
			"0000000000000000", "21a5dbee154b8f6d"},
		{"RC5/rivest2", func(k []byte) (cipher.Block, error) { return NewRC5(k, 12) },
			"915f4619be41b2516355a50110a9ce91",
			"21a5dbee154b8f6d", "f7c013ac5b2b8952"},
		{"RC5/rivest3", func(k []byte) (cipher.Block, error) { return NewRC5(k, 12) },
			"783348e75aeb0f2fd7b169bb8dc16787",
			"f7c013ac5b2b8952", "2f42b3b70369fc92"},
		// PRESENT-80: the four vectors from the CHES 2007 paper.
		{"PRESENT80/zero-zero", NewPRESENT,
			"00000000000000000000",
			"0000000000000000", "5579c1387b228445"},
		{"PRESENT80/zero-ones", NewPRESENT,
			"00000000000000000000",
			"ffffffffffffffff", "a112ffc72f68417b"},
		{"PRESENT80/ones-zero", NewPRESENT,
			"ffffffffffffffffffff",
			"0000000000000000", "e72c46c0f5945049"},
		{"PRESENT80/ones-ones", NewPRESENT,
			"ffffffffffffffffffff",
			"ffffffffffffffff", "3333dcd3213210d2"},
		// PRESENT-128: the all-zero and all-one key/plaintext vectors
		// published alongside the 128-bit key schedule.
		{"PRESENT128/zero-zero", NewPRESENT,
			"00000000000000000000000000000000",
			"0000000000000000", "96db702a2e6900af"},
		{"PRESENT128/zero-ones", NewPRESENT,
			"00000000000000000000000000000000",
			"ffffffffffffffff", "3c6019e5e5edd563"},
		{"PRESENT128/ones-zero", NewPRESENT,
			"ffffffffffffffffffffffffffffffff",
			"0000000000000000", "13238c710272a5d8"},
		{"PRESENT128/ones-ones", NewPRESENT,
			"ffffffffffffffffffffffffffffffff",
			"ffffffffffffffff", "628d9fbd4218e5b4"},
		// DES: the classic FIPS-era textbook vector.
		{"DES/classic", NewDES,
			"133457799bbcdff1",
			"0123456789abcdef", "85e813540f0ab405"},
		// HIGHT: test vector 1 from the HIGHT specification.
		{"HIGHT/tv1", NewHIGHT,
			"00112233445566778899aabbccddeeff",
			"0000000000000000", "00f418aed94f03f2"},
		// LEA-128: test vector from the LEA specification.
		{"LEA128/tv", NewLEA,
			"0f1e2d3c4b5a69788796a5b4c3d2e1f0",
			"101112131415161718191a1b1c1d1e1f",
			"9fc84e3528c6c6185532c7a704648bfd"},
	}
}

func TestKnownAnswers(t *testing.T) {
	for _, tc := range katCases() {
		t.Run(tc.name, func(t *testing.T) {
			key := mustHex(t, tc.key)
			pt := mustHex(t, tc.pt)
			want := mustHex(t, tc.ct)
			blk, err := tc.mk(key)
			if err != nil {
				t.Fatalf("constructor: %v", err)
			}
			got := make([]byte, blk.BlockSize())
			blk.Encrypt(got, pt)
			if !bytes.Equal(got, want) {
				t.Errorf("Encrypt = %x, want %x", got, want)
			}
			back := make([]byte, blk.BlockSize())
			blk.Decrypt(back, want)
			if !bytes.Equal(back, pt) {
				t.Errorf("Decrypt = %x, want %x", back, pt)
			}
		})
	}
}
