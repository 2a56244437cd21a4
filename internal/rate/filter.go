// Package rate provides the windowed extremum filter the congestion
// controllers and the transport's estimators share.
//
// The TACK receiver estimates the path's delivery rate (bw in paper Eq. 3)
// as a windowed maximum of per-TACK-interval delivery-rate samples; the
// round-trip timing advancements (paper §5.2) use windowed minimum filters
// over one-way-delay and RTT samples at both endpoints.
package rate

import "github.com/tacktp/tack/internal/sim"

// sample is one timestamped observation inside a windowed filter.
type sample struct {
	at  sim.Time
	val float64
}

// Filter tracks the maximum — or, built by NewMinFilter, the minimum —
// observation within a sliding time window. The zero value is unusable;
// construct with NewMaxFilter or NewMinFilter.
type Filter struct {
	window sim.Time
	min    bool
	// samples holds a monotonic deque (decreasing for a max filter,
	// increasing for a min filter): samples[0] is the window's extremum.
	samples []sample
}

// NewMaxFilter returns a max filter over the given window length.
func NewMaxFilter(window sim.Time) *Filter { return &Filter{window: window} }

// NewMinFilter returns a min filter over the given window length. Paper §5.2
// stacks one at the receiver (per-interval minimum OWD) and one at the
// sender (minimum RTT over τ ≤ 10 s).
func NewMinFilter(window sim.Time) *Filter { return &Filter{window: window, min: true} }

// Update folds in an observation at time now and returns the new window
// extremum.
func (f *Filter) Update(now sim.Time, v float64) float64 {
	f.expire(now)
	n := len(f.samples)
	for n > 0 && f.supersedes(v, f.samples[n-1].val) {
		n--
	}
	f.samples = append(f.samples[:n], sample{at: now, val: v})
	return f.samples[0].val
}

// supersedes reports whether a newer observation v makes an older one
// irrelevant: old can never be the window's extremum again.
func (f *Filter) supersedes(v, old float64) bool {
	if f.min {
		return old >= v
	}
	return old <= v
}

// Get returns the current window extremum, expiring stale samples first.
// It returns 0 when no sample is live; check Empty to disambiguate.
func (f *Filter) Get(now sim.Time) float64 {
	f.expire(now)
	if len(f.samples) == 0 {
		return 0
	}
	return f.samples[0].val
}

// Empty reports whether the filter holds no live samples at time now.
func (f *Filter) Empty(now sim.Time) bool {
	f.expire(now)
	return len(f.samples) == 0
}

// SetWindow changes the window length for subsequent queries.
func (f *Filter) SetWindow(w sim.Time) { f.window = w }

func (f *Filter) expire(now sim.Time) {
	cut := now - f.window
	i := 0
	for i < len(f.samples) && f.samples[i].at < cut {
		i++
	}
	if i > 0 {
		f.samples = f.samples[i:]
	}
}
