// Package sim provides a deterministic discrete-event simulation kernel.
//
// Every time-dependent component of the XLF testbed (devices, links, DNS,
// clouds, attackers) runs on a sim.Kernel rather than the wall clock, so a
// whole smart-home scenario — including attacks and detections — replays
// bit-identically from a seed. Time is modeled as a time.Duration offset
// from the simulation epoch.
//
// The kernel is built for scale (DESIGN.md §12): events live in a pooled
// slab indexed by a hierarchical timer wheel, so the schedule→dispatch→
// recycle cycle is allocation-free in steady state and a single kernel
// sustains millions of concurrent timers. Schedule calls hand back a
// value-type Handle whose Cancel/Canceled are generation-checked against
// the pool slot; holding a pointer into the pool would be unsound once
// the slot is recycled.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"xlf/internal/obs"
)

// Handle identifies a scheduled event without pointing into the event
// pool. It is a small value type: copy it freely, keep it in structs,
// compare it against the zero Handle (which refers to nothing and is
// safe to Cancel). Once the event has executed or been recycled the
// handle goes stale — Cancel becomes a no-op and Canceled reports false
// — enforced by a per-slot generation counter, so a stale handle can
// never touch a recycled slot's new occupant.
type Handle struct {
	k    *Kernel
	slot int32
	gen  uint32
}

// Cancel marks the event so the kernel skips it when its time arrives.
// Canceling an already-executed event, or the zero Handle, is a no-op.
func (h Handle) Cancel() {
	if h.k == nil || int(h.slot) >= len(h.k.slots) {
		return
	}
	e := &h.k.slots[h.slot]
	if e.gen != h.gen {
		return
	}
	e.canceled = true
}

// Canceled reports whether Cancel has been called on the event the
// handle refers to. It reports false once the event has executed or
// been recycled (the handle is stale), and for the zero Handle.
func (h Handle) Canceled() bool {
	if h.k == nil || int(h.slot) >= len(h.k.slots) {
		return false
	}
	e := &h.k.slots[h.slot]
	return e.gen == h.gen && e.canceled
}

// At returns the event's scheduled time. ok is false when the handle is
// stale (the event already executed or was recycled) or zero.
func (h Handle) At() (at time.Duration, ok bool) {
	if h.k == nil || int(h.slot) >= len(h.k.slots) {
		return 0, false
	}
	e := &h.k.slots[h.slot]
	if e.gen != h.gen {
		return 0, false
	}
	return e.at, true
}

// ErrStopped is returned by Run when StopNow interrupted the event loop.
var ErrStopped = errors.New("sim: kernel stopped")

// Kernel is a single-threaded discrete-event scheduler with its own seeded
// randomness source. It is not safe for concurrent use; the simulation
// model is strictly sequential, which is what makes runs reproducible.
type Kernel struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool
	ran     uint64
	pending int
	tracer  *obs.Tracer
	wheel
}

// NewKernel returns a kernel whose random source is seeded with seed.
// The same seed and the same scheduling sequence yield identical runs.
// The kernel (and every RNG stream drawn from it) is per-shard state:
// it must stay confined to the run that created it (DESIGN.md §14).
//
//xlf:owned(sim)
func NewKernel(seed int64) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(seed))}
	k.wheel.init()
	return k
}

// Now returns the current simulated time as an offset from the epoch.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source. Components must
// draw all randomness from here, never from package-level rand or crypto
// rand, so that scenarios replay exactly.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Pending returns the number of events waiting in the queue, including
// canceled events that have not yet been discarded.
func (k *Kernel) Pending() int { return k.pending }

// Processed returns how many events have executed since the kernel was
// created.
func (k *Kernel) Processed() uint64 { return k.ran }

// SetTracer attaches an observability tracer; every dispatched event then
// emits a sim-layer span. A nil tracer (the default) disables emission at
// the cost of one branch per event.
func (k *Kernel) SetTracer(t *obs.Tracer) { k.tracer = t }

// Schedule queues fn to run after delay (relative to Now). A negative delay
// is treated as zero. The returned Handle may be used to cancel the call.
func (k *Kernel) Schedule(delay time.Duration, name string, fn func()) Handle {
	if delay < 0 {
		delay = 0
	}
	return k.ScheduleAt(k.now+delay, name, fn)
}

// ScheduleAt queues fn to run at absolute simulated time at. Times in the
// past are clamped to Now.
func (k *Kernel) ScheduleAt(at time.Duration, name string, fn func()) Handle {
	if fn == nil {
		panic("sim: ScheduleAt called with nil fn")
	}
	if at < k.now {
		at = k.now
	}
	k.seq++
	s := k.alloc()
	e := &k.slots[s]
	e.at, e.name, e.fn, e.seq = at, name, fn, k.seq
	k.enqueue(s)
	k.pending++
	return Handle{k: k, slot: s, gen: e.gen}
}

// ScheduleArg queues fn(arg) to run after delay. It is the zero-closure
// variant of Schedule for per-packet/per-event hot paths: the caller keeps
// one long-lived fn and threads the payload through arg. With the pooled
// event slab the whole schedule→dispatch→recycle cycle allocates nothing
// in steady state (the slab itself grows amortized to peak backlog).
//
//xlf:hotpath
func (k *Kernel) ScheduleArg(delay time.Duration, name string, fn func(any), arg any) Handle {
	if fn == nil {
		panic("sim: ScheduleArg called with nil fn")
	}
	if delay < 0 {
		delay = 0
	}
	at := k.now + delay
	k.seq++
	s := k.alloc()
	e := &k.slots[s]
	e.at, e.name, e.fnArg, e.arg, e.seq = at, name, fn, arg, k.seq
	k.enqueue(s)
	k.pending++
	return Handle{k: k, slot: s, gen: e.gen}
}

// StopNow aborts the current Run after the in-flight event returns.
func (k *Kernel) StopNow() { k.stopped = true }

// Step executes the single earliest pending event, skipping canceled ones.
// It reports whether an event was executed. Same-timestamp events are
// drained from a presorted batch, so a burst of N simultaneous events
// costs one wheel access, not N heap operations.
//
// Step is shard-phase work for the shardsafe vet rules: in a sharded
// kernel it would run inside one shard's window and must not touch
// another domain.
//
//xlf:hotpath
//xlf:phase(shard)
func (k *Kernel) Step() bool {
	for {
		if k.batchIdx >= len(k.batch) {
			if !k.prepare(^uint64(0)) {
				return false
			}
		}
		s := k.batch[k.batchIdx]
		k.batchIdx++
		e := &k.slots[s]
		if e.canceled {
			k.pending--
			k.recycle(s)
			continue
		}
		k.now = e.at
		k.ran++
		k.pending--
		fn, fnArg, arg, name := e.fn, e.fnArg, e.arg, e.name
		k.recycle(s)
		if k.tracer != nil {
			k.tracer.EmitAt(k.now, obs.LayerSim, "event", "", name)
		}
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
		return true
	}
}

// Run executes events in order until the queue is empty or simulated time
// would pass until. The clock is left at until if the horizon was reached
// with events still pending, or at the last executed event otherwise.
// Run returns ErrStopped if StopNow was called during an event.
//
//xlf:phase(shard)
func (k *Kernel) Run(until time.Duration) error {
	k.stopped = false
	if until < k.now {
		return nil
	}
	limit := uint64(until)
	for {
		if k.stopped {
			return ErrStopped
		}
		if !k.prepare(limit) {
			if k.now < until {
				k.now = until
			}
			return nil
		}
		s := k.batch[k.batchIdx]
		if k.slots[s].canceled {
			k.batchIdx++
			k.pending--
			k.recycle(s)
			continue
		}
		k.Step()
	}
}

// RunAll executes every pending event regardless of horizon. maxEvents
// bounds runaway self-rescheduling loops; it returns an error when the
// bound is hit. Like Run, it clears the effect of a previous StopNow
// before entering the loop.
//
//xlf:phase(shard)
func (k *Kernel) RunAll(maxEvents int) error {
	k.stopped = false
	for i := 0; ; i++ {
		if i >= maxEvents {
			return fmt.Errorf("sim: RunAll exceeded %d events at t=%s", maxEvents, k.now)
		}
		if k.stopped {
			return ErrStopped
		}
		if !k.Step() {
			return nil
		}
	}
}

// Every schedules fn to run now+interval, then repeatedly every interval,
// until the returned Ticker is stopped. Jitter, if positive, adds a uniform
// random offset in [0, jitter) to each firing so that periodic sources do
// not phase-lock artificially.
func (k *Kernel) Every(interval, jitter time.Duration, name string, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every requires a positive interval")
	}
	t := &Ticker{kernel: k, interval: interval, jitter: jitter, name: name, fn: fn}
	// One closure per ticker, built once: each firing re-arms with the
	// same function value, so a long-lived periodic source costs only
	// its pooled event per period.
	t.fire = func() {
		if t.stopped {
			return
		}
		t.fires++
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

// Ticker is a repeating scheduled callback created by Kernel.Every.
type Ticker struct {
	kernel   *Kernel
	interval time.Duration
	jitter   time.Duration
	name     string
	fn       func()
	fire     func()
	pending  Handle
	stopped  bool
	fires    int
}

func (t *Ticker) arm() {
	d := t.interval
	if t.jitter > 0 {
		d += time.Duration(t.kernel.rng.Int63n(int64(t.jitter)))
	}
	t.pending = t.kernel.Schedule(d, t.name, t.fire)
}

// Stop cancels future firings. It is safe to call from inside the callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.pending.Cancel()
}

// Fires returns how many times the ticker's callback has run.
func (t *Ticker) Fires() int { return t.fires }
