// Package shaping implements XLF's network traffic shaping (§IV-B1) and
// the passive adversary it defends against. The shaper, deployed on the
// gateway, inserts random delays, pads packet sizes, and injects dummy
// cover traffic; the adversary implements the three-step inference of
// Apthorpe et al. (separate flows behind the NAT, associate DNS queries to
// identify devices, read send/receive rates to infer user activity) plus
// HoMonit-style event spotting. The E2 experiment sweeps shaping levels
// and reports adversary confidence versus bandwidth overhead.
package shaping

import (
	"time"

	"xlf/internal/netsim"
	"xlf/internal/obs"
	"xlf/internal/sim"
)

// Mode selects the shaping strategy (ablated in E2).
type Mode int

// Shaping modes.
const (
	ModeOff Mode = iota
	ModeDelay
	ModePad
	ModeCombined
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeDelay:
		return "delay"
	case ModePad:
		return "pad"
	case ModeCombined:
		return "delay+pad+dummies"
	default:
		return "unknown"
	}
}

// Config parametrises the shaper.
type Config struct {
	Mode Mode
	// MaxDelay bounds the uniform random delay added per packet
	// (ModeDelay).
	MaxDelay time.Duration
	// PadBucket rounds packet sizes up to a multiple of this (0 disables).
	PadBucket int
	// Interval is the constant emission cadence of ModeCombined
	// (rate equalisation): every Interval the shaper emits exactly one
	// cell — the oldest queued real packet, or a dummy when the queue is
	// empty — so the WAN rate is flat and user activity produces no
	// observable spike (Apthorpe et al.'s stochastic traffic padding,
	// simplified to constant-rate link padding).
	Interval time.Duration
	// DummySize is the size of injected dummies (defaults to PadBucket).
	DummySize int
	// IdleBudget bounds how many consecutive dummy cells are sent with an
	// empty queue before the cover stream pauses (bounds overhead; 0 =
	// unbounded cover traffic).
	IdleBudget int
}

// Level returns a canonical config for a shaping intensity in [0,1]:
// level 0 is off; higher levels add delay, coarser padding and more cover
// traffic. Used by the E2 sweep.
func Level(intensity float64) Config {
	switch {
	case intensity <= 0:
		return Config{Mode: ModeOff}
	case intensity < 0.34:
		return Config{Mode: ModeDelay, MaxDelay: time.Duration(200*intensity*3) * time.Millisecond}
	case intensity < 0.67:
		return Config{Mode: ModePad, PadBucket: 256 + int(768*(intensity-0.34)/0.33)}
	default:
		// Faster cadence (more cover traffic) as intensity grows.
		iv := time.Duration(600-450*(intensity-0.67)/0.33) * time.Millisecond
		return Config{
			Mode:      ModeCombined,
			Interval:  iv,
			PadBucket: 1024,
			DummySize: 1024,
		}
	}
}

// Stats accounts shaping overhead.
type Stats struct {
	RealPackets  int
	RealBytes    int
	PaddedBytes  int // extra bytes added by padding
	DummyPackets int
	DummyBytes   int
	TotalDelay   time.Duration
}

// OverheadFraction is (padding + dummy bytes) / real bytes.
func (s Stats) OverheadFraction() float64 {
	if s.RealBytes == 0 {
		return 0
	}
	return float64(s.PaddedBytes+s.DummyBytes) / float64(s.RealBytes)
}

// MeanDelay is the average added latency per real packet.
func (s Stats) MeanDelay() time.Duration {
	if s.RealPackets == 0 {
		return 0
	}
	return s.TotalDelay / time.Duration(s.RealPackets)
}

// queued is a real packet waiting in the equalisation queue.
type queued struct {
	pkt *netsim.Packet
	at  time.Duration
}

// Shaper transforms outbound packets on the gateway.
type Shaper struct {
	kernel *sim.Kernel
	cfg    Config
	stats  Stats
	tracer *obs.Tracer

	// Rate-equalisation state (ModeCombined).
	queue []queued
	// dummy is the template for cover cells: a copy of the last real
	// packet's addressing, taken while the hook runs, because the packet
	// itself belongs to the network once it is sent.
	dummy    netsim.Packet
	lastSend func(*netsim.Packet)
	ticker   *sim.Ticker
	idleRun  int
}

// New creates a shaper bound to the simulation kernel (all randomness is
// drawn from the kernel for reproducibility).
func New(kernel *sim.Kernel, cfg Config) *Shaper {
	if cfg.DummySize == 0 {
		cfg.DummySize = cfg.PadBucket
	}
	return &Shaper{kernel: kernel, cfg: cfg}
}

// Stats returns accumulated overhead accounting.
func (s *Shaper) Stats() Stats { return s.stats }

// SetTracer attaches an observability tracer; shaped packets and dummy
// cells then emit shaping-layer spans. Nil disables emission.
func (s *Shaper) SetTracer(t *obs.Tracer) { s.tracer = t }

// traceShape emits one shaping-layer span for a per-packet decision.
func (s *Shaper) traceShape(op string, pkt *netsim.Packet, cause string) {
	if s.tracer == nil {
		return
	}
	dev := ""
	if pkt.Src.IsLAN() {
		dev = string(pkt.Src[4:])
	}
	s.tracer.EmitAt(s.kernel.Now(), obs.LayerShaping, op, dev, cause)
}

// GatewayHook returns the function to install as Gateway.Shaper.
func (s *Shaper) GatewayHook() func(pkt *netsim.Packet, send func(*netsim.Packet)) {
	return func(pkt *netsim.Packet, send func(*netsim.Packet)) {
		s.stats.RealPackets++
		s.stats.RealBytes += pkt.Size
		s.traceShape("shape", pkt, s.cfg.Mode.String())

		switch s.cfg.Mode {
		case ModeOff:
			send(pkt)

		case ModeDelay:
			d := time.Duration(s.kernel.Rand().Int63n(int64(s.cfg.MaxDelay)))
			s.stats.TotalDelay += d
			s.kernel.Schedule(d, "shaper-delay", func() { send(pkt) })

		case ModePad:
			s.pad(pkt)
			send(pkt)

		case ModeCombined:
			// Fragment into fixed-size cells: every cell on the wire —
			// real, continuation, or dummy — is exactly PadBucket bytes,
			// so cell size carries zero information. A size mismatch here
			// (e.g. padding large packets to 2x the cell) is a real
			// leak: bursts would show as elevated per-bin byte counts.
			cell := s.cfg.PadBucket
			if cell <= 0 {
				cell = 1024
			}
			nCells := (pkt.Size + cell - 1) / cell
			if nCells < 1 {
				nCells = 1
			}
			s.stats.PaddedBytes += nCells*cell - pkt.Size
			now := s.kernel.Now()
			for i := 0; i < nCells; i++ {
				c := pkt
				if i > 0 {
					c = pkt.Clone()
					c.App = ""
					c.Payload = nil
				}
				c.Size = cell
				s.queue = append(s.queue, queued{pkt: c, at: now})
			}
			s.dummy = *pkt
			s.dummy.Size = s.cfg.DummySize
			s.dummy.Dummy = true
			s.dummy.App = ""
			s.dummy.Payload = nil
			s.lastSend = send
			s.idleRun = 0
			if s.ticker == nil {
				s.ticker = s.kernel.Every(s.cfg.Interval, 0, "shaper-cell", s.emitCell)
			}
		}
	}
}

// pad rounds the on-wire size up to the bucket.
func (s *Shaper) pad(pkt *netsim.Packet) {
	if s.cfg.PadBucket <= 0 {
		return
	}
	padded := ((pkt.Size + s.cfg.PadBucket - 1) / s.cfg.PadBucket) * s.cfg.PadBucket
	s.stats.PaddedBytes += padded - pkt.Size
	pkt.Size = padded
}

// emitCell fires every Interval: one real packet if queued, else a dummy.
// A constant cell stream makes activity bursts unobservable: the queue
// absorbs them and drains at the same flat rate the idle dummies maintain.
func (s *Shaper) emitCell() {
	if len(s.queue) > 0 {
		q := s.queue[0]
		s.queue = s.queue[1:]
		s.stats.TotalDelay += s.kernel.Now() - q.at
		s.lastSend(q.pkt)
		s.idleRun = 0
		return
	}
	if s.cfg.IdleBudget > 0 && s.idleRun >= s.cfg.IdleBudget {
		return // cover stream paused; next real packet resumes it
	}
	s.idleRun++
	dummy := s.dummy.Clone()
	s.stats.DummyPackets++
	s.stats.DummyBytes += dummy.Size
	s.traceShape("dummy", dummy, "cover")
	s.lastSend(dummy)
}
