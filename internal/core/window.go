package core

import "time"

// maxHist bounds a device's correlation window: a detector misfiring at
// line rate (or an adversary flooding a sensor) must not make the Core's
// memory grow without bound. The newest signals carry the evidence that
// matters.
const maxHist = 2048

// minRing is the ring size of a device's first signal; the ring doubles
// from there on demand, up to maxHist.
const minRing = 4

// window is one device's sliding correlation window, kept incrementally
// so that an ingest costs O(1) amortised time instead of a rescan:
//
//   - buf is a ring of the live signals in arrival order. The signal with
//     sequence number s sits in buf[s&mask]; head is the sequence number
//     of the oldest live signal and tail that of the next to arrive.
//   - maxq is a monotonic deque of sequence numbers, held in a ring of the
//     same size, whose scores strictly decrease from front to back. Its
//     front is the window's maximum score. Only scores above 0 enter it,
//     so NaN and non-positive scores never become the maximum, and an
//     empty deque reads as 0.
//   - layers counts the live signals of each layer present, so its
//     length is the number of distinct layers in the window.
type window struct {
	buf          []Signal
	head, tail   uint64
	maxq         []uint64
	qhead, qtail uint64
	layers       []layerCount

	// Alert bookkeeping, which outlives the signals in the window.
	lastAlert time.Duration
	alerted   bool
	contained bool
}

// layerCount is the number of live signals from one layer.
type layerCount struct {
	layer LayerName
	n     int
}

func (w *window) len() int { return int(w.tail - w.head) }

func (w *window) mask() uint64 { return uint64(len(w.buf) - 1) }

// at returns the live signal with sequence number seq.
func (w *window) at(seq uint64) *Signal { return &w.buf[seq&w.mask()] }

// admit makes room for a signal at time t. It evicts signals older than
// cutoff from the front only, stopping at the first one that is not, so
// an out-of-order older signal behind it stays live. Only then does it
// drop the oldest signal if the ring is at maxHist: the other order would
// also evict that stale signal, which changes the alerts
// (TestCoreMatchesReference pins this). It reports false when the new
// signal itself falls outside the window, which happens only when
// cutoff = t - Window wrapped around.
func (w *window) admit(t, cutoff time.Duration) bool {
	for w.head != w.tail && w.at(w.head).Time < cutoff {
		w.popFront()
	}
	if w.head == w.tail && t < cutoff {
		return false
	}
	if w.len() == maxHist {
		w.popFront()
	}
	return true
}

// popFront evicts the oldest live signal.
func (w *window) popFront() {
	old := w.at(w.head)
	w.dropLayer(old.Layer)
	if w.qhead != w.qtail && w.maxq[w.qhead&w.mask()] == w.head {
		w.qhead++
	}
	*old = Signal{} // release its strings
	w.head++
}

// push appends a copy of *sig as the newest live signal. The caller has
// made room with admit, so the ring never grows past maxHist.
func (w *window) push(sig *Signal) {
	if w.len() == len(w.buf) {
		w.grow()
	}
	seq := w.tail
	*w.at(seq) = *sig
	w.tail++
	w.addLayer(sig.Layer)
	if sig.Score > 0 {
		m := w.mask()
		for w.qtail != w.qhead && w.at(w.maxq[(w.qtail-1)&m]).Score <= sig.Score {
			w.qtail--
		}
		w.maxq[w.qtail&m] = seq
		w.qtail++
	}
}

// grow doubles the ring and the deque, keeping every live entry at its
// sequence number's slot under the new mask.
func (w *window) grow() {
	n := max(2*len(w.buf), minRing)
	buf := make([]Signal, n)
	maxq := make([]uint64, n)
	m := uint64(n - 1)
	for s := w.head; s != w.tail; s++ {
		buf[s&m] = *w.at(s)
	}
	for q := w.qhead; q != w.qtail; q++ {
		maxq[q&m] = w.maxq[q&w.mask()]
	}
	w.buf, w.maxq = buf, maxq
}

// maxScore is the largest score above 0 in the window, or 0.
func (w *window) maxScore() float64 {
	if w.qhead == w.qtail {
		return 0
	}
	return w.at(w.maxq[w.qhead&w.mask()]).Score
}

func (w *window) addLayer(l LayerName) {
	for i := range w.layers {
		if w.layers[i].layer == l {
			w.layers[i].n++
			return
		}
	}
	w.layers = append(w.layers, layerCount{layer: l, n: 1})
}

// dropLayer removes one signal of layer l, forgetting the layer when it
// was the last one. Order does not matter: alerts sort their layers.
func (w *window) dropLayer(l LayerName) {
	for i := range w.layers {
		if w.layers[i].layer != l {
			continue
		}
		if w.layers[i].n--; w.layers[i].n == 0 {
			last := len(w.layers) - 1
			w.layers[i] = w.layers[last]
			w.layers[last] = layerCount{}
			w.layers = w.layers[:last]
		}
		return
	}
}

// signals copies the live window in arrival order.
func (w *window) signals() []Signal {
	out := make([]Signal, w.len())
	for i := range out {
		out[i] = *w.at(w.head + uint64(i))
	}
	return out
}
