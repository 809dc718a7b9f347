package channel

import (
	"bytes"
	"testing"

	"xlf/internal/lwc"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestSealOpenAllocBudget pins the per-message cost of a warmed-up
// session, on a 64- and a 128-bit cipher: Seal and Open each allocate
// only the slice they return, reusing the session's MAC, counter,
// keystream and tag buffers.
func TestSealOpenAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	reg := lwc.NewRegistry()
	for _, name := range []string{"PRESENT", "LEA"} {
		info, _ := reg.Lookup(name)
		key := bytes.Repeat([]byte{7}, info.DefaultKeyBits()/8)
		tx, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := New(info, key)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("keepalive:bulb-7")
		var sealed []byte
		if n := testing.AllocsPerRun(100, func() {
			if sealed, err = tx.Seal(msg); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s Seal: %v allocs per message, want 1", name, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			rx.recvHigh = 0
			if _, err := rx.Open(sealed); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%s Open: %v allocs per message, want 1", name, n)
		}
	}
}
