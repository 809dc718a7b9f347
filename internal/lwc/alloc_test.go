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
