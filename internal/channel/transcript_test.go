package channel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"xlf/internal/lwc"
)

// transcriptLens mixes empty, sub-block, exact-block and multi-block
// plaintexts, so consecutive tags alternate between a full and a partial
// final CMAC block on both 64- and 128-bit ciphers.
var transcriptLens = []int{0, 1, 7, 8, 9, 15, 16, 17, 100}

// negotiable lists every registry cipher Negotiate can return for some
// profile: the same key-size and block-size filter, without the fit test.
func negotiable(reg *lwc.Registry) []lwc.Info {
	var out []lwc.Info
	for _, info := range reg.All() {
		if info.DefaultKeyBits() > 64 && info.BlockSize >= 64 {
			out = append(out, info)
		}
	}
	return out
}

// TestSealTranscriptDigests pins every negotiable cipher's Seal output, as
// recorded before the session kept its MAC and keystream state between
// messages: SHA-256 over two passes of sealed messages of every length in
// transcriptLens. Each message must also Open on a peer session.
func TestSealTranscriptDigests(t *testing.T) {
	want := map[string]string{
		"AES":     "c67ecc4587af1c070402cce13f2632c9210f024e7f6be741e79c9a2055d82a1a",
		"HIGHT":   "c2a775f0a68d37334467360ceebccb50ca245b23586ba2d13ee003ca3af6515f",
		"PRESENT": "903f5ac6a92c33e16a75345c21a629555ac97b676fe553dee0d88371c3d71cd4",
		"RC5":     "cf95aa429785a3543e2ec80b16db0395e13b5ca819770a0aca956c4c355dcfbb",
		"TEA":     "09e68e5022d625f9e690236473ca4c1d09ec01a4047cf9135e5c93ee40e560f7",
		"XTEA":    "08aa31e49bbd03cee83e2e113cc2b06fa6de61f47aa529515868caa251a7a4ae",
		"LEA":     "85a3be464197894bbc4e4a3ca88e82059bace490d4c80cd9f969e40bb07b7edd",
		"SEED":    "ba755ae306604f4b2ecdba2fff1d94eb993182dff9082f6392d01b1f4398b093",
		"TWINE":   "0cbe69ddf676cb6f791d2901de74aab411b45e8bd50442684eca4247371f7b0f",
		"3DES":    "261857e54e11f27c7da7cf43d1f70488b7a4001984cb18e74942532fb3dc914f",
		"Iceberg": "a93bbe7a5f4cfaaeb0e92cece70b927f4712fc45d2ee6cb83fcf18731dbd7a7f",
		"Pride":   "ba84c1b67c23f3031ac4dac5de560a446a6196973e4d1daf388185f71de67c8e",
	}
	reg := lwc.NewRegistry()
	seen := 0
	for _, info := range negotiable(reg) {
		key := make([]byte, info.DefaultKeyBits()/8)
		for i := range key {
			key[i] = byte(i*11 + 3)
		}
		tx, err := New(info, key)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		rx, err := New(info, key)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		h := sha256.New()
		for pass := 0; pass < 2; pass++ {
			for _, n := range transcriptLens {
				msg := make([]byte, n)
				for i := range msg {
					msg[i] = byte(n + i*7 + pass)
				}
				sealed, err := tx.Seal(msg)
				if err != nil {
					t.Fatalf("%s Seal(%d B): %v", info.Name, n, err)
				}
				h.Write(sealed)
				got, err := rx.Open(sealed)
				if err != nil {
					t.Fatalf("%s Open(%d B): %v", info.Name, n, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("%s round trip of %d B = %x, want %x", info.Name, n, got, msg)
				}
			}
		}
		seen++
		got := hex.EncodeToString(h.Sum(nil))
		if w, ok := want[info.Name]; !ok || got != w {
			t.Errorf("%s transcript digest = %s, want %s", info.Name, got, w)
		}
	}
	if seen != len(want) {
		t.Errorf("checked %d negotiable ciphers, want %d", seen, len(want))
	}
}
