package transport

// RACK-TLP (RFC 8985) sender-side loss detection.
//
// TACK thins acknowledgments to f_tack (paper §3, Eq. 3), so the last
// feedback before an idle tail arrives late: duplicate-threshold detection
// then strands short streams on a full RTO. RACK replaces the packet-count
// heuristic with time — a segment is lost once a segment sent *after* it
// has been acknowledged and the segment's age exceeds the most recent RTT
// plus a reorder window — and the Tail Loss Probe retransmits the newest
// unacked segment ~2×SRTT after the last transmission, converting tail
// recovery from ~RTO into ~2×SRTT.
//
// The reorder window starts at min-RTT/4 over a sliding sample window (the
// VPP tcp_rack shape: the minimum of the last few RTTs, not a global
// minimum), clamps to [reorderWindowMin, reorderWindowMax], and widens
// multiplicatively whenever the send buffer observes actual reordering
// evidence — an original transmission acknowledged out of send order, or a
// loss mark disproven by a late original arrival.

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/rtt"
	"github.com/tacktp/tack/internal/sim"
)

const (
	// reorderWindowInit is the reorder window before the first RTT sample,
	// when no adaptive base exists yet; reorderWindowMin and
	// reorderWindowMax clamp the adaptive window (RFC 8985 §6.1.1 shape).
	reorderWindowInit = 10 * sim.Millisecond
	reorderWindowMin  = sim.Millisecond
	reorderWindowMax  = 200 * sim.Millisecond
	// probeTimeoutMult is the TLP probe timeout in units of SRTT (RFC 8985
	// §7.2: PTO ≈ 2×SRTT; below 1 it would probe inside one round trip).
	probeTimeoutMult = 2
	// rackMaxWndMult caps the multiplicative reorder-window widening;
	// beyond it the [min, max] clamp dominates anyway and further doubling
	// only risks overflow.
	rackMaxWndMult = 64
)

// rackState holds the per-connection RACK-TLP machinery: the reorder-window
// adaptation inputs and the tail-probe bookkeeping. The sender owns the
// timers; rackState is pure state.
type rackState struct {
	// minRTT is the sliding-window minimum the reorder window derives
	// from. It forgets by sample count (rtt.DefaultSlidingMinSize) so a
	// route change flushes a stale minimum.
	minRTT *rtt.SlidingMin
	// rtt is the most recent RTT sample (RFC 8985 RACK.rtt: the RTT of the
	// most recently delivered packet).
	rtt sim.Time

	// wndMult doubles on fresh reordering evidence and never decays: once a
	// path has reordered, trading detection latency for accuracy stays the
	// right call (VPP keeps the multiplier sticky the same way).
	wndMult int64
	// seenReorders mirrors the send buffer's cumulative reorder count so
	// each event widens the window exactly once.
	seenReorders int64

	// Tail Loss Probe state: at most one probe may be outstanding, and the
	// probe is considered answered once acknowledgments reach its packet
	// number.
	tlpOut     bool
	tlpHighPkt uint64
	// lastPTO is the probe timeout most recently armed, recorded for
	// telemetry when the probe fires.
	lastPTO sim.Time
}

func newRackState() *rackState {
	return &rackState{minRTT: rtt.NewSlidingMin(rtt.DefaultSlidingMinSize), wndMult: 1}
}

// onRTTSample folds one RTT sample into the window base and RACK.rtt.
func (r *rackState) onRTTSample(sample sim.Time) {
	if sample <= 0 {
		return
	}
	r.rtt = sample
	r.minRTT.Update(sample)
}

// reorderWindow returns the current adaptive reorder window: min-RTT/4
// scaled by the widening multiplier, clamped to [reorderWindowMin,
// reorderWindowMax]; before any RTT sample it is reorderWindowInit.
func (r *rackState) reorderWindow() sim.Time {
	minRTT, ok := r.minRTT.Min()
	if !ok {
		return reorderWindowInit
	}
	return max(reorderWindowMin, min(reorderWindowMax, sim.Time(int64(minRTT)/4*r.wndMult)))
}

// observeReorders diffs the send buffer's cumulative reorder-event count
// against what was already seen, widens the window once per fresh event,
// and returns the number of new events (for metrics).
func (r *rackState) observeReorders(total int64) int64 {
	fresh := total - r.seenReorders
	if fresh <= 0 {
		return 0
	}
	r.seenReorders = total
	for i := int64(0); i < fresh && r.wndMult < rackMaxWndMult; i++ {
		r.wndMult *= 2
	}
	return fresh
}

// rackRTT returns the RTT term of the loss deadline: the latest sample,
// falling back to srtt (then a conservative constant) before any sample.
func (r *rackState) rackRTT(srtt sim.Time) sim.Time {
	if r.rtt > 0 {
		return r.rtt
	}
	if srtt > 0 {
		return srtt
	}
	return 100 * sim.Millisecond
}

// probeTimeout returns the TLP timer duration: probeTimeoutMult×SRTT plus
// the longest the receiver may hold the acknowledgment the probe would
// race — the RTO's RTTmin/2 budget (one TACK interval plus the IACK settle
// delay at the defaults), but never under two ackpolicy.MinInterval: the
// interval is floored there and the peer's timer service is no better, so
// a budget that follows RTTmin below a millisecond expires just as the
// floored TACK is due and short transfers end in spurious probes. Before
// any RTT estimate it falls back to a full second, like the RTO.
func (r *rackState) probeTimeout(srtt, minRTT sim.Time) sim.Time {
	if srtt <= 0 {
		return sim.Second
	}
	hold := minRTT / 2
	if floored := 2 * ackpolicy.MinInterval; hold < floored {
		hold = floored
	}
	return probeTimeoutMult*srtt + hold
}
