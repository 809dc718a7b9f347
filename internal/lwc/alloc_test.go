package lwc

import "testing"

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestEncryptAllocFree pins every registry cipher's Encrypt and Decrypt
// to zero allocations per block: the channel layer seals every keepalive
// with one of them, and T3 encrypts thousands of blocks per cipher.
func TestEncryptAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, info := range NewRegistry().All() {
		blk, err := info.New(digestKey(info.DefaultKeyBits()))
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		buf := make([]byte, blk.BlockSize())
		if n := testing.AllocsPerRun(100, func() { blk.Encrypt(buf, buf) }); n != 0 {
			t.Errorf("%s Encrypt: %v allocs per block, want 0", info.Name, n)
		}
		if n := testing.AllocsPerRun(100, func() { blk.Decrypt(buf, buf) }); n != 0 {
			t.Errorf("%s Decrypt: %v allocs per block, want 0", info.Name, n)
		}
	}
}

// TestSum64AllocFree pins one-shot DM-PRESENT hashing, what every
// attestation sweep does per device, to zero allocations, and a reused
// CMAC's Reset/Write/Sum cycle to none beyond the slice Sum appends to.
func TestSum64AllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	img := make([]byte, 37)
	if n := testing.AllocsPerRun(100, func() { sinkSum = Sum64(img) }); n != 0 {
		t.Errorf("Sum64: %v allocs per digest, want 0", n)
	}
	blk, err := NewPRESENT(digestKey(80))
	if err != nil {
		t.Fatal(err)
	}
	mac, err := NewCMAC(blk)
	if err != nil {
		t.Fatal(err)
	}
	tag := make([]byte, 0, mac.Size())
	if n := testing.AllocsPerRun(100, func() {
		mac.Reset()
		mac.Write(img)
		tag = mac.Sum(tag[:0])
	}); n != 0 {
		t.Errorf("CMAC Reset/Write/Sum: %v allocs per tag, want 0", n)
	}
}
