// Package netsim is the discrete-event packet network under the XLF
// testbed: nodes, lossy/latency links, a NAT smart gateway, DNS, and
// packet taps. It substitutes for the paper's real home networks (see
// DESIGN.md): XLF's network-layer functions consume packet metadata —
// sizes, timing, endpoints, DNS names — which this simulator produces
// deterministically on a sim.Kernel.
package netsim

import (
	"fmt"
	"slices"
	"time"

	"xlf/internal/obs"
	"xlf/internal/sim"
)

// Addr is a node address. LAN addresses conventionally look like
// "lan:bulb-1"; WAN addresses like "wan:cloud.example".
type Addr string

// IsLAN reports whether the address is on the home side of the gateway.
func (a Addr) IsLAN() bool { return len(a) >= 4 && a[:4] == "lan:" }

// Packet is the unit of transmission. Fields are metadata the XLF network
// layer can observe; Payload is opaque application data (possibly
// encrypted).
//
// Ownership: a handler, tap or hook that receives a *Packet may read it
// only until it returns. Whatever it wants to keep, it copies, as Capture
// and the IDS record do. The network recycles the copies the gateway
// forwards: once delivered or dropped, such a packet is zeroed and reused
// for a later send, so a kept pointer reads zeros or another packet.
// A sender may reuse its own packet once the network has delivered it.
// Nobody writes a payload after it is sent, so copies share it.
type Packet struct {
	ID       uint64
	Src, Dst Addr
	SrcPort  int
	DstPort  int
	// Proto names the protocol from the proto registry ("DNS", "TLS",
	// "HTTP", "MQTT", ...).
	Proto string
	// Size is the on-wire size in bytes (headers included).
	Size int
	// Encrypted marks payload confidentiality (TLS/DTLS channels).
	Encrypted bool
	// DNSName is set on DNS queries/responses.
	DNSName string
	// Payload is application data; for encrypted packets this is the
	// ciphertext or searchable-encryption tokens.
	Payload []byte
	// App labels the logical message kind ("event:on", "ota", "cc-beacon",
	// ...); observers do NOT see this field — it is ground truth for
	// evaluation only.
	App string
	// SentAt/DeliveredAt are simulation timestamps.
	SentAt      time.Duration
	DeliveredAt time.Duration
	// Dummy marks cover traffic injected by the traffic shaper; receivers
	// discard it. Ground truth only — observers must not read it.
	Dummy bool
	// pooled marks a packet drawn from the network's free list, which
	// the network takes back after delivery. It sits in the tail padding
	// after Dummy, so a Packet stays 168 bytes.
	pooled bool
}

// Clone returns a deep copy (payload included) that the caller owns.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	q.pooled = false
	return &q
}

// FlowKey identifies a unidirectional flow.
type FlowKey struct {
	Src, Dst Addr
	DstPort  int
	Proto    string
}

// Flow returns the packet's flow key.
func (p *Packet) Flow() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, DstPort: p.DstPort, Proto: p.Proto}
}

// Node is anything attachable to the network.
type Node interface {
	// Addr returns the node's address; it must be stable and unique.
	Addr() Addr
	// Handle processes a delivered packet. The packet is valid only
	// until Handle returns; a node that keeps any of it copies it.
	Handle(net *Network, pkt *Packet)
}

// Link models the medium between a node and the network core.
type Link struct {
	Latency   time.Duration
	Jitter    time.Duration
	Bandwidth float64 // bytes per second; 0 = infinite
	Loss      float64 // probability in [0,1)
	// Medium names the radio/wire family ("802.15.4", "802.11", "wired").
	Medium string
}

// DefaultLAN is a home WiFi-ish link.
func DefaultLAN() Link {
	return Link{Latency: 2 * time.Millisecond, Jitter: time.Millisecond, Bandwidth: 2e6, Medium: "802.11"}
}

// DefaultZigbee is an 802.15.4 mesh link: slow and chatty.
func DefaultZigbee() Link {
	return Link{Latency: 8 * time.Millisecond, Jitter: 4 * time.Millisecond, Bandwidth: 31250, Medium: "802.15.4"}
}

// DefaultWAN is the uplink to the cloud.
func DefaultWAN() Link {
	return Link{Latency: 20 * time.Millisecond, Jitter: 5 * time.Millisecond, Bandwidth: 12.5e6, Medium: "wired"}
}

// TapDirection tells a tap where it saw the packet.
type TapDirection int

// Tap positions.
const (
	TapLAN TapDirection = iota + 1 // inside the home, pre-NAT
	TapWAN                         // outside the gateway, post-NAT
)

// Tap observes packets. Taps run synchronously at delivery time and must
// not mutate the packet. The packet is valid only until the tap returns;
// a tap that keeps any of it copies it.
type Tap func(dir TapDirection, pkt *Packet)

// Network is the packet-switching core bound to a simulation kernel.
type Network struct {
	kernel  *sim.Kernel
	nodes   map[Addr]attached
	lanTaps []Tap
	wanTaps []Tap
	nextID  uint64
	tracer  *obs.Tracer

	// deliverArg is the one long-lived dispatch closure handed to
	// sim.Kernel.ScheduleArg, so Send does not allocate a capturing
	// closure per packet.
	deliverArg func(any)

	// free holds zeroed packets for the gateway's forwarded copies; see
	// copyOf and release.
	free []*Packet

	// stats
	delivered uint64
	dropped   uint64
	bytes     uint64
}

// New creates an empty network on a kernel. The network (nodes,
// links, in-flight packets) is per-run state owned by the net domain
// (DESIGN.md §14).
//
//xlf:owned(net)
func New(k *sim.Kernel) *Network {
	n := &Network{
		kernel: k,
		nodes:  make(map[Addr]attached),
	}
	n.deliverArg = func(a any) { n.deliver(a.(*Packet)) }
	return n
}

// attached is a node bound to an address, with its access link.
type attached struct {
	node Node
	link Link
}

// Kernel exposes the simulation kernel for nodes that schedule work.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Attach adds a node with its access link. Attaching a duplicate address
// is an error.
func (n *Network) Attach(node Node, link Link) error {
	a := node.Addr()
	if a == "" {
		return fmt.Errorf("netsim: node has empty address")
	}
	if _, dup := n.nodes[a]; dup {
		return fmt.Errorf("netsim: duplicate address %q", a)
	}
	n.nodes[a] = attached{node, link}
	return nil
}

// Detach removes a node (e.g., a device knocked offline by an attack).
func (n *Network) Detach(a Addr) {
	delete(n.nodes, a)
}

// SetLink replaces an attached node's access link — used for failure
// injection (degrading a link's loss/latency mid-scenario) and for RF
// environment changes.
func (n *Network) SetLink(a Addr, link Link) error {
	at, ok := n.nodes[a]
	if !ok {
		return fmt.Errorf("netsim: SetLink: no node at %q", a)
	}
	at.link = link
	n.nodes[a] = at
	return nil
}

// LinkOf returns a node's current access link.
func (n *Network) LinkOf(a Addr) (Link, bool) {
	at, ok := n.nodes[a]
	return at.link, ok
}

// NodeAt returns the node bound to an address.
func (n *Network) NodeAt(a Addr) (Node, bool) {
	at, ok := n.nodes[a]
	return at.node, ok
}

// AddTap registers a packet observer at a tap point.
func (n *Network) AddTap(dir TapDirection, t Tap) {
	if dir == TapWAN {
		n.wanTaps = append(n.wanTaps, t)
	} else {
		n.lanTaps = append(n.lanTaps, t)
	}
}

// Stats returns (delivered, dropped, totalBytes).
func (n *Network) Stats() (uint64, uint64, uint64) {
	return n.delivered, n.dropped, n.bytes
}

// SetTracer attaches an observability tracer; sends, deliveries and drops
// then emit netsim-layer spans. Nil disables emission.
func (n *Network) SetTracer(t *obs.Tracer) { n.tracer = t }

// lanDevice extracts a device ID for span attribution: the LAN-side
// endpoint of the packet, if any, with the "lan:" prefix stripped.
// The substring of an Addr is a string-to-string conversion — no copy.
//
//xlf:hotpath
func lanDevice(pkt *Packet) string {
	if pkt.Src.IsLAN() {
		return string(pkt.Src[4:])
	}
	if pkt.Dst.IsLAN() {
		return string(pkt.Dst[4:])
	}
	return ""
}

// Send queues a packet for delivery. Latency, serialisation delay, jitter
// and loss come from the sender's and receiver's links. Packets to unknown
// addresses are counted as drops. Send allocates nothing: the delivery
// event comes from the kernel's pooled slab, the dispatch reuses
// n.deliverArg instead of capturing pkt in a fresh closure, and the event
// name is a constant (the destination is on the packet for anyone who
// needs it).
//
//xlf:hotpath
func (n *Network) Send(pkt *Packet) {
	n.nextID++
	pkt.ID = n.nextID
	pkt.SentAt = n.kernel.Now()

	src, sok := n.nodes[pkt.Src]
	dst, rok := n.nodes[pkt.Dst]
	sl, rl := src.link, dst.link
	if !sok {
		sl = DefaultLAN()
	}
	if !rok {
		rl = sl
	}

	rng := n.kernel.Rand()
	if sl.Loss > 0 && rng.Float64() < sl.Loss {
		n.dropped++
		n.traceDrop(pkt, "loss:sender")
		n.release(pkt)
		return
	}
	if rl.Loss > 0 && rng.Float64() < rl.Loss {
		n.dropped++
		n.traceDrop(pkt, "loss:receiver")
		n.release(pkt)
		return
	}

	delay := sl.Latency + rl.Latency
	if sl.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(sl.Jitter)))
	}
	if sl.Bandwidth > 0 {
		delay += time.Duration(float64(pkt.Size) / sl.Bandwidth * float64(time.Second))
	}
	if rl.Bandwidth > 0 {
		delay += time.Duration(float64(pkt.Size) / rl.Bandwidth * float64(time.Second))
	}

	if n.tracer != nil {
		n.tracer.EmitSpan(obs.Span{
			Time: pkt.SentAt, Layer: obs.LayerNetsim, Op: "send",
			Device: lanDevice(pkt), Cause: pkt.Proto, Detail: string(pkt.Dst),
		})
	}
	n.kernel.ScheduleArg(delay, "deliver", n.deliverArg, pkt)
}

// traceDrop emits a drop span when tracing is on.
//
//xlf:hotpath
func (n *Network) traceDrop(pkt *Packet, cause string) {
	if n.tracer == nil {
		return
	}
	n.tracer.EmitSpan(obs.Span{
		Time: n.kernel.Now(), Layer: obs.LayerNetsim, Op: "drop",
		Device: lanDevice(pkt), Cause: cause, Detail: pkt.Proto,
	})
}

// deliver hands a packet to taps and its destination node, then takes
// back a packet drawn from the free list.
//
//xlf:hotpath
func (n *Network) deliver(pkt *Packet) {
	pkt.DeliveredAt = n.kernel.Now()
	n.delivered++
	n.bytes += uint64(pkt.Size)

	// Tap placement: traffic with a LAN endpoint is visible to the LAN
	// tap; traffic with a WAN endpoint is visible to the WAN tap. A
	// LAN->WAN packet hits both (it traverses the gateway).
	if pkt.Src.IsLAN() || pkt.Dst.IsLAN() {
		for _, t := range n.lanTaps {
			t(TapLAN, pkt)
		}
	}
	if !pkt.Src.IsLAN() || !pkt.Dst.IsLAN() {
		for _, t := range n.wanTaps {
			t(TapWAN, pkt)
		}
	}

	at, ok := n.nodes[pkt.Dst]
	if !ok {
		n.dropped++
		n.traceDrop(pkt, "no-node")
		n.release(pkt)
		return
	}
	if n.tracer != nil {
		n.tracer.EmitSpan(obs.Span{
			Time: pkt.DeliveredAt, Dur: pkt.DeliveredAt - pkt.SentAt,
			Layer: obs.LayerNetsim, Op: "deliver",
			Device: lanDevice(pkt), Cause: pkt.Proto, Detail: string(pkt.Dst),
		})
	}
	at.node.Handle(n, pkt)
	n.release(pkt)
}

// copyOf returns a network-owned copy of pkt from the free list. The copy
// shares pkt's payload. Send takes it back after delivery or a drop.
//
//xlf:hotpath
func (n *Network) copyOf(pkt *Packet) *Packet {
	var q *Packet
	if last := len(n.free) - 1; last >= 0 {
		q = n.free[last]
		n.free = n.free[:last]
	} else {
		q = new(Packet) //xlf:allow-hotpath the free list grows to the peak of forwarded packets in flight, then reuses them
	}
	*q = *pkt
	q.pooled = true
	return q
}

// release zeroes a packet drawn from the free list and returns it there;
// other packets belong to their senders and are left alone.
//
//xlf:hotpath
func (n *Network) release(pkt *Packet) {
	if !pkt.pooled {
		return
	}
	*pkt = Packet{}
	n.free = append(n.free, pkt) //xlf:allow-hotpath the free list grows to the peak of forwarded packets in flight, then reuses its backing array
}

// Broadcast delivers a packet to every LAN node except the sender —
// UPnP/SSDP-style discovery chatter. Destinations are sent to in address
// order, so each draws the same jitter on every identically seeded run.
func (n *Network) Broadcast(src Addr, mk func(dst Addr) *Packet) {
	dsts := make([]Addr, 0, len(n.nodes))
	for a := range n.nodes {
		if a != src && a.IsLAN() {
			dsts = append(dsts, a)
		}
	}
	slices.Sort(dsts)
	for _, a := range dsts {
		n.Send(mk(a))
	}
}

// FuncNode adapts a handler function into a Node; useful for cloud
// endpoints and attackers.
type FuncNode struct {
	Address Addr
	Fn      func(net *Network, pkt *Packet)
}

var _ Node = (*FuncNode)(nil)

// Addr implements Node.
func (f *FuncNode) Addr() Addr { return f.Address }

// Handle implements Node.
func (f *FuncNode) Handle(net *Network, pkt *Packet) {
	if f.Fn != nil {
		f.Fn(net, pkt)
	}
}
