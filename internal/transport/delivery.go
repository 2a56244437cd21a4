package transport

import (
	"github.com/tacktp/tack/internal/rate"
	"github.com/tacktp/tack/internal/sim"
)

// deliverySample is one delivery-rate observation over a measurement
// interval ending at a TACK.
type deliverySample struct {
	// Bytes delivered within the interval (all packets).
	Bytes int64
	// Elapsed is the whole interval length.
	Elapsed sim.Time
	// Packets counts arrivals in the interval.
	Packets int
}

// IntervalBps returns bytes-over-interval throughput (includes idle time;
// a lower bound on the path rate).
func (s deliverySample) IntervalBps() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Bytes) * 8 / s.Elapsed.Seconds()
}

// deliveryEstimator computes per-interval delivery-rate samples at the
// receiver and keeps the windowed maximum delivery rate ("bw" in paper
// Eq. 3 and §5.4: a max filter over θ_filter = 5–10 RTTs).
type deliveryEstimator struct {
	max        *rate.Filter
	intervalAt sim.Time
	bytes      int64
	packets    int

	started bool
}

// newDeliveryEstimator returns an estimator whose max filter spans window.
func newDeliveryEstimator(window sim.Time) *deliveryEstimator {
	return &deliveryEstimator{max: rate.NewMaxFilter(window)}
}

// OnDeliver records bytes arriving at time now.
func (e *deliveryEstimator) OnDeliver(now sim.Time, bytes int) {
	if bytes <= 0 {
		return
	}
	if !e.started {
		e.started = true
		e.intervalAt = now
	}
	e.packets++
	e.bytes += int64(bytes)
}

// EndInterval closes the current measurement interval (called when a TACK
// is emitted), folds its throughput sample into the max filter, and returns
// the sample.
//
// The filtered value is the *interval throughput* (bytes over the whole
// interval): under a shared bottleneck this measures the flow's achieved
// share rather than the instantaneous drain rate, which keeps a
// receiver-coordinated BBR no more aggressive than the sender-based one.
// Degenerate intervals (fewer than two packets, or shorter than 1 ms) carry
// no usable rate information and are skipped.
func (e *deliveryEstimator) EndInterval(now sim.Time) deliverySample {
	s := deliverySample{Bytes: e.bytes, Elapsed: now - e.intervalAt, Packets: e.packets}
	if s.Packets >= 2 && s.Elapsed >= sim.Millisecond {
		if bps := s.IntervalBps(); bps > 0 {
			e.max.Update(now, bps)
		}
	}
	e.intervalAt = now
	e.bytes = 0
	e.packets = 0
	return s
}

// MaxBps returns the current windowed maximum delivery rate in bits/s.
func (e *deliveryEstimator) MaxBps(now sim.Time) float64 { return e.max.Get(now) }

// SetWindow adjusts the max-filter window (θ_filter), e.g. as RTT estimates
// firm up.
func (e *deliveryEstimator) SetWindow(w sim.Time) { e.max.SetWindow(w) }
