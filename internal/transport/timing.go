package transport

// Round-trip timing. Two estimators run, mirroring the paper's §5.2
// comparison, and both are an estimate fed differently:
//
//   - The legacy sender-side approach — one RTT sample per ACK, computed as
//     ack-arrival minus data-departure. When ACKs are delayed (which TACK
//     does aggressively) samples inherit the ACK delay, biasing RTTmin
//     estimates upward by 8–18% in the paper's microbenchmark.
//
//   - The "advanced" TACK scheme (receiverTiming + estimate.onEcho). The
//     receiver computes per-packet relative one-way delays (no clock sync
//     needed — only variation matters), smooths them with an EWMA, picks
//     the packet achieving the minimum smoothed OWD in each TACK interval,
//     and echoes that packet's departure timestamp together with the TACK
//     delay Δt⋆. The sender reconstructs RTT = t1 − t0⋆ − Δt⋆ and feeds a
//     windowed min-filter (τ ≤ 10 s, handling route changes); a second
//     min-filter at the receiver side is implicit in per-interval minimum
//     selection.

import (
	"github.com/tacktp/tack/internal/rate"
	"github.com/tacktp/tack/internal/sim"
)

// minWindow is the default min-filter horizon τ (paper §5.2: τ ≤ 10 s,
// the 10-second part handling route changes).
const minWindow = 10 * sim.Second

// estimate is the smoothed state shared by both estimator flavours,
// following the RFC 6298 smoothing discipline.
type estimate struct {
	srtt   sim.Time
	rttvar sim.Time
	min    *rate.Filter
	init   bool
	count  int
}

// newEstimate returns an estimator with the given min-filter window
// (0 selects minWindow).
func newEstimate(window sim.Time) *estimate {
	if window <= 0 {
		window = minWindow
	}
	return &estimate{min: rate.NewMinFilter(window)}
}

// Update folds in one RTT sample taken at time now.
func (e *estimate) Update(now sim.Time, sample sim.Time) {
	if sample <= 0 {
		return
	}
	e.count++
	e.min.Update(now, float64(sample))
	if !e.init {
		e.srtt = sample
		e.rttvar = sample / 2
		e.init = true
		return
	}
	// RFC 6298: alpha = 1/8, beta = 1/4.
	diff := e.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	e.rttvar = (3*e.rttvar + diff) / 4
	e.srtt = (7*e.srtt + sample) / 8
}

// Smoothed returns the smoothed RTT (0 before the first sample).
func (e *estimate) Smoothed() sim.Time { return e.srtt }

// Min returns the windowed minimum RTT at time now; ok is false before the
// first sample (or after the window empties).
func (e *estimate) Min(now sim.Time) (sim.Time, bool) {
	if e.min.Empty(now) {
		return 0, false
	}
	return sim.Time(e.min.Get(now)), true
}

// Samples returns how many samples were folded in.
func (e *estimate) Samples() int { return e.count }

// RTO returns the retransmission timeout: srtt + 4·rttvar, clamped to
// [minRTO, maxRTO]; before any sample it returns fallback.
func (e *estimate) RTO(minRTO, maxRTO, fallback sim.Time) sim.Time {
	if !e.init {
		return fallback
	}
	rto := e.srtt + 4*e.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

// defaultSlidingMinSize is the default sample count of a slidingMin window
// (matching VPP's tcp_rack minrtt_window_size default).
const defaultSlidingMinSize = 8

// slidingMin tracks the minimum RTT over the last N samples — the RACK
// reorder-window base (RFC 8985 §6.1.1). Unlike the time-windowed
// estimate.Min it forgets by sample count, so a route change flushes the
// stale minimum after N acknowledgments regardless of elapsed time; RACK
// wants "min of the last few RTTs, not a global minimum" (VPP tcp_rack.c
// rack_get_minrtt_from_window).
type slidingMin struct {
	window []sim.Time
	next   int
	filled int
}

// newSlidingMin returns a sliding minimum over the last size samples
// (size <= 0 selects defaultSlidingMinSize).
func newSlidingMin(size int) *slidingMin {
	if size <= 0 {
		size = defaultSlidingMinSize
	}
	return &slidingMin{window: make([]sim.Time, size)}
}

// Update folds in one RTT sample, evicting the oldest once the window is
// full.
func (m *slidingMin) Update(sample sim.Time) {
	if sample <= 0 {
		return
	}
	m.window[m.next] = sample
	m.next = (m.next + 1) % len(m.window)
	if m.filled < len(m.window) {
		m.filled++
	}
}

// Min returns the smallest sample currently in the window; ok is false
// before the first sample.
func (m *slidingMin) Min() (sim.Time, bool) {
	if m.filled == 0 {
		return 0, false
	}
	// Slots [0, filled) are exactly the populated ones: the window fills
	// sequentially from 0 and wraps only once full.
	min := m.window[0]
	for i := 1; i < m.filled; i++ {
		if m.window[i] < min {
			min = m.window[i]
		}
	}
	return min, true
}

// receiverTiming is the receiver half of the advanced scheme.
type receiverTiming struct {
	// EWMA of raw per-packet OWD samples; the per-interval minimum is taken
	// over the smoothed series to suppress single-packet jitter.
	smooth *sim.Time
	alpha  float64

	// Best packet (by smoothed OWD) within the current TACK interval.
	haveBest      bool
	bestOWD       sim.Time
	bestDeparture sim.Time
	bestArrival   sim.Time
}

// newReceiverTiming returns receiver timing state. alpha is the OWD EWMA
// smoothing factor; the paper's scheme uses an EWMA over per-packet OWD
// samples (we default to 1/8 when alpha <= 0).
func newReceiverTiming(alpha float64) *receiverTiming {
	if alpha <= 0 {
		alpha = 0.125
	}
	return &receiverTiming{alpha: alpha}
}

// OnData records the arrival of a packet carrying departure timestamp
// sentAt (sender clock). Relative OWD = arrival − departure; absolute clock
// offset cancels out of all comparisons.
func (r *receiverTiming) OnData(now, sentAt sim.Time) {
	sample := now - sentAt
	var smoothed sim.Time
	if r.smooth == nil {
		v := sample
		r.smooth = &v
		smoothed = sample
	} else {
		v := sim.Time(r.alpha*float64(sample) + (1-r.alpha)*float64(*r.smooth))
		*r.smooth = v
		smoothed = v
	}
	if !r.haveBest || smoothed <= r.bestOWD {
		r.haveBest = true
		r.bestOWD = smoothed
		r.bestDeparture = sentAt
		r.bestArrival = now
	}
}

// echo is the timing payload the receiver attaches to a TACK.
type echo struct {
	// Departure is t0⋆: the departure timestamp of the packet achieving the
	// minimum smoothed OWD this interval.
	Departure sim.Time
	// AckDelay is Δt⋆: TACK send time minus that packet's arrival.
	AckDelay sim.Time
	// Valid is false when no data arrived this interval.
	Valid bool
}

// OnAckSent closes the interval at TACK transmission time and returns the
// echo fields to embed in the TACK.
func (r *receiverTiming) OnAckSent(now sim.Time) echo {
	if !r.haveBest {
		return echo{}
	}
	e := echo{Departure: r.bestDeparture, AckDelay: now - r.bestArrival, Valid: true}
	r.haveBest = false
	return e
}

// onEcho folds in the echo from a TACK arriving at time now — the sender
// half of the advanced scheme: RTT = now − t0⋆ − Δt⋆ (paper Figure 4).
func (e *estimate) onEcho(now sim.Time, ec echo) {
	if !ec.Valid {
		return
	}
	e.Update(now, now-ec.Departure-ec.AckDelay)
}
