package telemetry

import "sync"

// DefaultRingSize is the flight-recorder capacity used when a caller
// asks for a ring without choosing a size. 256 events cover several
// RTTs of ack/loss/cc activity at TACK ack frequencies while costing
// ~18 KiB per connection once a connection has recorded that many.
const DefaultRingSize = 256

// Ring is a bounded flight recorder for Events: writes overwrite the
// oldest entry once its capacity is reached. Storage grows on demand —
// nothing until the first event, then doubling up to the capacity, so a
// connection that only shakes hands and idles holds a few events' worth —
// and recording never allocates in steady state. It is the always-on
// capture layer behind anomaly post-mortems — cheap enough to run on
// every connection even when full tracing is disabled.
//
// A Ring is safe for concurrent use; Put takes a mutex (not the
// per-packet hot path's atomics, but recording is a single struct copy
// under the lock, and dump/snapshot readers are rare).
type Ring struct {
	mu    sync.Mutex
	size  int     // capacity in events
	buf   []Event // the held events; event n since start lives at buf[n % size]
	total uint64  // events ever recorded
	start uint64  // total at the last Release
}

// NewRing returns a ring holding the last size events (DefaultRingSize
// when size <= 0).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Ring{size: size}
}

// Put records one event, overwriting the oldest when full. Nil-safe.
func (r *Ring) Put(e *Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if n := r.total - r.start; n < uint64(r.size) {
		r.buf = append(r.buf, *e) // below capacity: grow, amortised doubling
	} else {
		r.buf[n%uint64(r.size)] = *e
	}
	r.total++
	r.mu.Unlock()
}

// Release drops the held events and their storage; the ring stays usable
// and Total keeps counting. For an owner that knows the history will not
// be asked for again (a connection that has finished). Nil-safe.
func (r *Ring) Release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf = nil
	r.start = r.total
	r.mu.Unlock()
}

// Total returns the number of events ever recorded, including ones
// already overwritten.
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot appends the held events to dst in oldest-to-newest order and
// returns the extended slice. Pass a reused buffer to avoid allocation.
func (r *Ring) Snapshot(dst []Event) []Event {
	if r == nil {
		return dst
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	head := (r.total - r.start) % uint64(r.size) // index of the oldest event
	if len(r.buf) < r.size {
		head = 0 // never wrapped
	}
	dst = append(dst, r.buf[head:]...)
	return append(dst, r.buf[:head]...)
}
