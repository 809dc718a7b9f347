package netsim

import (
	"testing"

	"xlf/internal/sim"
)

// raceEnabled is flipped by alloc_race_test.go: the race runtime
// instruments allocations, so byte-exact AllocsPerRun guards only run
// in regular builds.
var raceEnabled bool

// TestSendDeliverAllocBudget is the dynamic half of the //xlf:hotpath
// contract on Send and deliver: moving one packet end to end allocates
// nothing — Send reuses the network's long-lived deliverArg closure and a
// constant event name, the kernel recycles a pooled event slot, and
// deliver (taps, stats, node dispatch) allocates nothing.
func TestSendDeliverAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}

	k := sim.NewKernel(1)
	n := New(k)
	dst := &FuncNode{Address: "lan:sink", Fn: func(*Network, *Packet) {}}
	if err := n.Attach(dst, Link{}); err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{Src: "lan:src", Dst: "lan:sink", Proto: "TLS", Size: 100}

	if a := testing.AllocsPerRun(200, func() {
		n.Send(pkt)
		if !k.Step() {
			t.Fatal("no delivery event")
		}
	}); a != 0 {
		t.Errorf("Send+deliver allocates %.1f per packet, want 0", a)
	}
}

// TestSendOutBlockedAllocBudget pins the refusal's cost in the gateway: a
// packet the outbound policy refuses with a preallocated error allocates
// only SendOut's wrapping error, whose text is built when it is read.
func TestSendOutBlockedAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := New(sim.NewKernel(1))
	gw := NewGateway("lan:gw", "wan:home")
	gw.OutboundPolicy = func(*Packet) error { return errBlocked }
	pkt := &Packet{Src: "lan:dev", Dst: "wan:evil", DstPort: 80, Size: 10}
	if a := testing.AllocsPerRun(200, func() {
		if gw.SendOut(n, pkt) == nil {
			t.Fatal("policy did not block")
		}
	}); a != 1 {
		t.Errorf("refused SendOut allocates %.1f, want 1", a)
	}
}

// keepaliveHome is the smallest home a keepalive crosses: a gateway with
// both faces attached, a device and its cloud, and the device's one
// reused keepalive packet.
func keepaliveHome(tb testing.TB) (*sim.Kernel, *Network, *Gateway, *Packet) {
	tb.Helper()
	k := sim.NewKernel(1)
	n := New(k)
	gw := NewGateway("lan:gw", "wan:home")
	for _, a := range []struct {
		node Node
		link Link
	}{
		{gw, DefaultLAN()},
		{gw.WANNode(), DefaultWAN()},
		{&FuncNode{Address: "lan:bulb-1"}, DefaultLAN()},
		{&FuncNode{Address: "wan:cloud.example"}, DefaultWAN()},
	} {
		if err := n.Attach(a.node, a.link); err != nil {
			tb.Fatal(err)
		}
	}
	pkt := &Packet{
		Src: "lan:bulb-1", SrcPort: 7443, Dst: "wan:cloud.example", DstPort: 443,
		Proto: "XLF-LWC", Encrypted: true, Size: 201, App: "keepalive",
		Payload: make([]byte, 32),
	}
	return k, n, gw, pkt
}

// TestGatewaySendOutAllocBudget pins the forwarded path's cost: a reused
// packet through SendOut, NAT and delivery allocates nothing once the
// free list holds a packet, because the forwarded copy is drawn from it
// and returned after delivery.
func TestGatewaySendOutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k, n, gw, pkt := keepaliveHome(t)
	if a := testing.AllocsPerRun(200, func() {
		if err := gw.SendOut(n, pkt); err != nil {
			t.Fatal(err)
		}
		if !k.Step() {
			t.Fatal("no delivery event")
		}
	}); a != 0 {
		t.Errorf("SendOut+deliver allocates %.1f per packet, want 0", a)
	}
}

// BenchmarkGatewaySendOut takes a reused keepalive-shaped packet through
// SendOut (NAT, the forwarded copy) and its delivery.
func BenchmarkGatewaySendOut(b *testing.B) {
	k, n, gw, pkt := keepaliveHome(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gw.SendOut(n, pkt); err != nil {
			b.Fatal(err)
		}
		if !k.Step() {
			b.Fatal("no delivery event")
		}
	}
}

// BenchmarkNetsimSend measures the packet hot path end to end
// (Send → pooled delivery event → deliver) and must report 0 allocs/op;
// scripts/bench-compare gates it against bench/seed.
func BenchmarkNetsimSend(b *testing.B) {
	k := sim.NewKernel(1)
	n := New(k)
	dst := &FuncNode{Address: "lan:sink", Fn: func(*Network, *Packet) {}}
	if err := n.Attach(dst, Link{}); err != nil {
		b.Fatal(err)
	}
	pkt := &Packet{Src: "lan:src", Dst: "lan:sink", Proto: "TLS", Size: 100}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(pkt)
		if !k.Step() {
			b.Fatal("no delivery event")
		}
	}
}
