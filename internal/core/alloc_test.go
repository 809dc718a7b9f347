package core

import (
	"testing"
	"time"

	"xlf/internal/netsim"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestIngestAllocFree is the dynamic half of the //xlf:hotpath contract
// on Ingest: once a device's window is at the 2048-signal cap, a
// non-alerting ingest (one eviction, one push, the confidence update)
// must not allocate.
func TestIngestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c := New(DefaultConfig(), Containment{})
	layers := []LayerName{Device, Network, Service}
	var i int
	ingest := func() {
		if a := c.Ingest(sig(time.Duration(i)*time.Millisecond, layers[i%len(layers)], "cam-1", "scan", 0.3)); a != nil {
			t.Fatalf("steady-state ingest alerted: %s", a)
		}
		i++
	}
	for i < maxHist {
		ingest()
	}
	if n := testing.AllocsPerRun(500, ingest); n != 0 {
		t.Errorf("Ingest allocates %.1f per signal at the cap, want 0", n)
	}
}

// TestGatewayHookDenyAllocBudget pins the refusal's cost in the NAC hook:
// with no OnDeny, a denied packet allocates only the returned error, whose
// text is built when it is read.
func TestGatewayHookDenyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := NewNACPolicy()
	p.Allow("lan:a", "wan:vendor")
	hook := p.GatewayHook()
	pkt := &netsim.Packet{Src: "lan:a", Dst: "wan:b", DstPort: 80}
	if n := testing.AllocsPerRun(200, func() {
		if hook(pkt) == nil {
			t.Fatal("unenrolled destination allowed")
		}
	}); n != 1 {
		t.Errorf("refused GatewayHook call allocates %.1f, want 1", n)
	}
}
