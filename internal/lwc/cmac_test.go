package lwc

import (
	"bytes"
	"crypto/aes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// TestCMACAESVectors checks against the NIST SP 800-38B AES-128 examples.
func TestCMACAESVectors(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		msg, want string
	}{
		{"", "bb1d6929e95937287fa37d129b756746"},
		{"6bc1bee22e409f96e93d7e117393172a", "070a16b46b4d4144f79bdd9dd04a287c"},
		{
			"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411",
			"dfa66747de9ae63030ca32611497c827",
		},
		{
			"6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e5130c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
			"51f0bebf7e3b9d92fc49741779363cfe",
		},
	}
	for i, tc := range cases {
		mac, err := NewCMAC(blk)
		if err != nil {
			t.Fatal(err)
		}
		mac.Write(mustHex(t, tc.msg))
		got := mac.Sum(nil)
		if !bytes.Equal(got, mustHex(t, tc.want)) {
			t.Errorf("case %d: CMAC = %x, want %s", i, got, tc.want)
		}
	}
}

// TestCMACOver64BitCipher exercises CMAC over PRESENT (64-bit block).
func TestCMACOver64BitCipher(t *testing.T) {
	blk, err := NewPRESENT(bytes.Repeat([]byte{7}, 10))
	if err != nil {
		t.Fatal(err)
	}
	mac, err := NewCMAC(blk)
	if err != nil {
		t.Fatal(err)
	}
	mac.Write([]byte("hello iot"))
	tag1 := mac.Sum(nil)
	if len(tag1) != 8 {
		t.Fatalf("tag length = %d, want 8", len(tag1))
	}
	// Sum must not disturb the running state.
	tag2 := mac.Sum(nil)
	if !bytes.Equal(tag1, tag2) {
		t.Error("repeated Sum differs")
	}
	// Incremental writes equal a single write.
	mac.Reset()
	mac.Write([]byte("hello"))
	mac.Write([]byte(" iot"))
	tag3 := mac.Sum(nil)
	if !bytes.Equal(tag1, tag3) {
		t.Errorf("incremental CMAC = %x, want %x", tag3, tag1)
	}
}

func TestCMACRejectsTinyBlock(t *testing.T) {
	blk, err := NewHummingbird2(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCMAC(blk); err == nil {
		t.Error("NewCMAC accepted a 16-bit block cipher")
	}
}

// TestCMACDistinguishesMessages is a property test: distinct short
// messages get distinct tags (w.h.p. for a 128-bit MAC).
func TestCMACDistinguishesMessages(t *testing.T) {
	key := bytes.Repeat([]byte{0x42}, 16)
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		m1, _ := NewCMAC(blk)
		m2, _ := NewCMAC(blk)
		m1.Write(a)
		m2.Write(b)
		return !bytes.Equal(m1.Sum(nil), m2.Sum(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDMPresentBasics(t *testing.T) {
	d := NewDMPresent()
	d.Write([]byte("firmware v1.0"))
	h1 := d.Sum(nil)
	if len(h1) != 8 {
		t.Fatalf("digest length = %d, want 8", len(h1))
	}
	// Repeated Sum is stable.
	if !bytes.Equal(h1, d.Sum(nil)) {
		t.Error("repeated Sum differs")
	}
	// Reset restores the initial state.
	d.Reset()
	d.Write([]byte("firmware v1.0"))
	if !bytes.Equal(h1, d.Sum(nil)) {
		t.Error("Reset+rehash differs")
	}
	// Incremental equals one-shot.
	d.Reset()
	d.Write([]byte("firmware"))
	d.Write([]byte(" v1.0"))
	if !bytes.Equal(h1, d.Sum(nil)) {
		t.Error("incremental hash differs")
	}
}

// TestDMPresentDigests pins DM-PRESENT digests, so that a faster
// compression function cannot change the firmware fingerprints.
func TestDMPresentDigests(t *testing.T) {
	for in, want := range map[string]uint64{
		"":         0x38ecbc2d963ae575,
		"a":        0x8b1580e3bc20e879,
		"abcdefgh": 0xceefdddb2a24ca0d,
		"firmware image v1.2.3 for the smart bulb": 0x11ac22072d6a7aae,
		string(make([]byte, 100)):                  0xbd7786925f984742,
	} {
		if got := Sum64([]byte(in)); got != want {
			t.Errorf("Sum64(%q) = %#016x, want %#016x", in, got, want)
		}
	}
}

// BenchmarkDMPresentSum measures one firmware fingerprint: a catalog
// device's 16-byte image, as attestation hashes it, and a 1 KiB image.
func BenchmarkDMPresentSum(b *testing.B) {
	for _, n := range []int{16, 1024} {
		img := bytes.Repeat([]byte{0xA5}, n)
		b.Run(itoa(n)+"B", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sinkSum = Sum64(img)
			}
		})
	}
}

// sinkSum keeps BenchmarkDMPresentSum's hashing from being optimised away.
var sinkSum uint64

func TestDMPresentLengthStrengthening(t *testing.T) {
	// Messages that are prefixes must not collide (padding includes the
	// length, so "a" and "a\x00" differ).
	if Sum64([]byte("a")) == Sum64([]byte("a\x00")) {
		t.Error("length extension collision")
	}
	if Sum64(nil) == Sum64([]byte{0x80}) {
		t.Error("empty message collides with its padding")
	}
}

func TestDMPresentDistinguishes(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return Sum64(a) == Sum64(b)
		}
		return Sum64(a) != Sum64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCMACReuseMatchesFresh runs one CMAC through Reset/Write/Sum for
// messages whose final block alternates between full and partial, split
// across two writes, and checks every tag (and a repeated Sum) against a
// fresh NewCMAC per message. A Sum that reuses its padding buffer without
// clearing it first fails here.
func TestCMACReuseMatchesFresh(t *testing.T) {
	for _, name := range []string{"PRESENT", "AES"} {
		info, _ := NewRegistry().Lookup(name)
		blk, err := info.New(digestKey(info.DefaultKeyBits()))
		if err != nil {
			t.Fatal(err)
		}
		bs := blk.BlockSize()
		reused, err := NewCMAC(blk)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range []int{2 * bs, 3, bs, 1, 0, bs + 5, 4 * bs, bs - 1, 2*bs + 1} {
			msg := make([]byte, n)
			for j := range msg {
				msg[j] = byte(i*31 + j*7 + 1)
			}
			fresh, err := NewCMAC(blk)
			if err != nil {
				t.Fatal(err)
			}
			fresh.Write(msg)
			want := fresh.Sum(nil)

			reused.Reset()
			reused.Write(msg[:n/3])
			reused.Write(msg[n/3:])
			if got := reused.Sum(nil); !bytes.Equal(got, want) {
				t.Errorf("%s msg %d (%d B): reused CMAC = %x, fresh = %x", name, i, n, got, want)
			}
			if got := reused.Sum([]byte{0xEE}); !bytes.Equal(got[1:], want) || got[0] != 0xEE {
				t.Errorf("%s msg %d (%d B): repeated Sum = %x, want ee%x", name, i, n, got, want)
			}
		}
	}
}

// TestDMPresentSplitMatchesOneShot writes every message of length 0..40
// in two pieces split at every point, with a Sum in between, and checks
// the digest against one-shot Sum64. dmSplitDigest pins those 41 one-shot
// digests as recorded before Write compressed straight from its input.
func TestDMPresentSplitMatchesOneShot(t *testing.T) {
	const dmSplitDigest = "0f85e38fe60c32bb7814561e6361309d80e46b87583ff4440f53241c0abfaa79"
	h := sha256.New()
	d := NewDMPresent()
	for n := 0; n <= 40; n++ {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(n*13 + i*5)
		}
		want := Sum64(msg)
		h.Write(binary.BigEndian.AppendUint64(nil, want))
		for cut := 0; cut <= n; cut++ {
			d.Reset()
			d.Write(msg[:cut])
			d.Sum(nil)
			d.Write(msg[cut:])
			if got := binary.BigEndian.Uint64(d.Sum(nil)); got != want {
				t.Fatalf("len %d split at %d: %#016x, want %#016x", n, cut, got, want)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != dmSplitDigest {
		t.Errorf("one-shot digest transcript = %s, want %s", got, dmSplitDigest)
	}
}
