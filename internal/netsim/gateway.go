package netsim

import (
	"fmt"
)

// Gateway is the smart home gateway: it NATs LAN traffic to its WAN
// address, keeps the port-mapping table, and is where XLF's network-layer
// functions (shaping, monitoring, NAC) are deployed when the XLF Core runs
// at the edge (§IV-D).
type Gateway struct {
	lanAddr Addr
	wanAddr Addr

	// natOut maps (lanSrc, dstPort, dst) -> external port;
	// natIn maps external port -> lan address/port.
	natOut map[natKey]int
	natIn  map[int]natBinding
	next   int

	// Firewall rules: NAC policy hook (§IV-A3 constrained access). If
	// non-nil, outbound packets it rejects are dropped and counted.
	OutboundPolicy func(pkt *Packet) error
	// InboundPolicy guards WAN->LAN traffic (port protection, §II-B).
	InboundPolicy func(pkt *Packet) error

	// Shaper, when set, intercepts outbound post-NAT packets (traffic
	// shaping lives on the gateway). It receives the packet and a send
	// function to emit (possibly delayed/padded) traffic. The packet is
	// the network's forwarded copy: the shaper owns it until it hands it
	// to send (or may drop it), and must not read it afterwards, because
	// the network reuses it once delivered. To keep any of it, copy it.
	Shaper func(pkt *Packet, send func(*Packet))

	// OnForward, when set, observes every accepted outbound packet with
	// its ORIGINAL (pre-NAT) addressing — the gateway-resident XLF
	// functions read device attribution here, since post-NAT taps only
	// see the gateway's own address.
	OnForward func(pkt *Packet)

	blockedOut uint64
	blockedIn  uint64
	forwarded  uint64
}

type natKey struct {
	lanSrc  Addr
	lanPort int
	dst     Addr
	dstPort int
}

type natBinding struct {
	lanAddr Addr
	lanPort int
}

var _ Node = (*Gateway)(nil)

// NewGateway creates a gateway with LAN and WAN faces.
func NewGateway(lan, wan Addr) *Gateway {
	return &Gateway{
		lanAddr: lan,
		wanAddr: wan,
		natOut:  make(map[natKey]int),
		natIn:   make(map[int]natBinding),
		next:    40000,
	}
}

// Addr implements Node with the gateway's LAN face. The WAN face is
// attached separately via WANNode.
func (g *Gateway) Addr() Addr { return g.lanAddr }

// WANAddr returns the external address.
func (g *Gateway) WANAddr() Addr { return g.wanAddr }

// Blocked returns (outboundBlocked, inboundBlocked).
func (g *Gateway) Blocked() (uint64, uint64) { return g.blockedOut, g.blockedIn }

// Forwarded returns the NAT-forwarded packet count.
func (g *Gateway) Forwarded() uint64 { return g.forwarded }

// Handle implements Node for the LAN face and drops what it receives:
// WAN-bound traffic goes through SendOut, so only packets addressed to the
// gateway itself arrive here, and the model serves none.
func (g *Gateway) Handle(*Network, *Packet) {}

// WANNode returns the Node for the gateway's WAN face, which receives
// inbound traffic and un-NATs it.
func (g *Gateway) WANNode() Node {
	return &FuncNode{Address: g.wanAddr, Fn: g.handleInbound}
}

func (g *Gateway) handleInbound(net *Network, pkt *Packet) {
	b, ok := g.natIn[pkt.DstPort]
	if !ok {
		g.blockedIn++
		return
	}
	if g.InboundPolicy != nil {
		if err := g.InboundPolicy(pkt); err != nil {
			g.blockedIn++
			return
		}
	}
	in := net.copyOf(pkt)
	in.Dst = b.lanAddr
	in.DstPort = b.lanPort
	g.forwarded++
	net.Send(in)
}

// SendOut NATs a LAN packet to the WAN and transmits it, applying the
// outbound policy and the traffic shaper. Devices and the home router
// call this for WAN-bound traffic. The network sends its own copy, so the
// caller keeps pkt and may reuse it as soon as SendOut returns.
func (g *Gateway) SendOut(net *Network, pkt *Packet) error {
	if !pkt.Src.IsLAN() {
		return fmt.Errorf("netsim: SendOut from non-LAN address %q", pkt.Src)
	}
	if g.OutboundPolicy != nil {
		if err := g.OutboundPolicy(pkt); err != nil {
			g.blockedOut++
			return &blockedError{err}
		}
	}
	key := natKey{lanSrc: pkt.Src, lanPort: pkt.SrcPort, dst: pkt.Dst, dstPort: pkt.DstPort}
	ext, ok := g.natOut[key]
	if !ok {
		g.next++
		ext = g.next
		g.natOut[key] = ext
		g.natIn[ext] = natBinding{lanAddr: pkt.Src, lanPort: pkt.SrcPort}
	}
	if g.OnForward != nil {
		g.OnForward(pkt)
	}
	out := net.copyOf(pkt)
	out.Src = g.wanAddr
	out.SrcPort = ext
	g.forwarded++
	if g.Shaper != nil {
		g.Shaper(out, func(p *Packet) { net.Send(p) })
		return nil
	}
	net.Send(out)
	return nil
}

// blockedError is SendOut's refusal: the outbound policy's error behind a
// fixed prefix, built into text only when read.
type blockedError struct{ err error }

func (e *blockedError) Error() string { return "netsim: outbound blocked: " + e.err.Error() }

func (e *blockedError) Unwrap() error { return e.err }

// ExternalPortFor exposes the NAT mapping for tests and the adversary
// model (an external observer distinguishes clients by external port).
func (g *Gateway) ExternalPortFor(lanSrc Addr, lanPort int, dst Addr, dstPort int) (int, bool) {
	p, ok := g.natOut[natKey{lanSrc: lanSrc, lanPort: lanPort, dst: dst, dstPort: dstPort}]
	return p, ok
}
