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
	"github.com/tacktp/tack/internal/buffer"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
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
	// from. It forgets by sample count (defaultSlidingMinSize) so a
	// route change flushes a stale minimum.
	minRTT *slidingMin
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
	return &rackState{minRTT: newSlidingMin(defaultSlidingMinSize), wndMult: 1}
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

// --- Sender side: the scan, its re-check timer and the tail probe. ---

// rackDetect runs the RFC 8985 scan: every unacked segment sent at or
// before the most recently delivered transmission whose age exceeds
// RACK.rtt plus the adaptive reorder window is marked lost. Returns newly
// marked bytes; when a candidate's deadline is still in the future the
// re-check timer is armed at that deadline.
func (s *Sender) rackDetect(now sim.Time) int {
	if ev := s.rack.observeReorders(s.buf.ReorderEvents()); ev > 0 {
		s.mRackReorder.Add(ev)
	}
	cutoff, cutoffPkt, ok := s.buf.RackState()
	if !ok {
		return 0
	}
	reoWnd := s.rack.reorderWindow()
	deadline := s.rack.rackRTT(s.est.Smoothed()) + reoWnd + s.scheme.rackHold()
	lost := 0
	sentAt, pending := s.buf.ScanRackLosses(cutoff, cutoffPkt, func(seg *buffer.Segment) bool {
		if now-seg.SentAt < deadline {
			return false
		}
		s.buf.MarkLoss(seg)
		lost += seg.Len
		s.Stats.RackMarked++
		s.mRackMarked.Inc()
		s.mReoWnd.Observe(reoWnd.Seconds())
		s.tracer.LossMarked(now, s.cfg.ConnID, telemetry.TrigDetRACK,
			seg.Seq, seg.PktSeq, seg.Len, reoWnd, now-seg.SentAt)
		return true
	})
	if pending {
		s.rackTimer.Reset(sentAt + deadline)
	} else {
		s.rackTimer.Stop()
	}
	return lost
}

// onRackTimer re-runs detection when a previously-too-young candidate's
// reorder-window deadline arrives without an acknowledgment.
func (s *Sender) onRackTimer() {
	if s.rack == nil || s.done || !s.established {
		return
	}
	now := s.loop.Now()
	if lost := s.rackDetect(now); lost > 0 {
		s.enterLossEpisode(now, lost)
		s.pacer.SetRate(now, s.ctrl.PacingRate())
		s.trySend()
	}
}

// armTLP schedules the tail loss probe at probeTimeoutMult×SRTT after the
// last transmission. The timer stays disarmed while nothing is in flight,
// while marked segments already drive recovery, or while a probe is
// outstanding (one-probe rule).
func (s *Sender) armTLP() {
	if s.rack == nil {
		return
	}
	if s.done || !s.established || s.buf.Len() == 0 || s.buf.HasMarked() || s.rack.tlpOut {
		s.tlpTimer.Stop()
		return
	}
	now := s.loop.Now()
	min, _ := s.est.Min(now)
	pto := s.rack.probeTimeout(s.est.Smoothed(), min)
	s.rack.lastPTO = pto
	at := s.lastDataSend + pto
	if at <= now {
		at = now + sim.Millisecond
	}
	s.tlpTimer.Reset(at)
}

// onTLP fires the tail loss probe: retransmit the newest unacked segment
// (with a fresh packet number, so in TACK mode the receiver sees a PKT.SEQ
// beyond the potentially-lost tail and raises a loss report), then restart
// the RTO from the probe.
func (s *Sender) onTLP() {
	if s.rack == nil || s.done || !s.established || s.rack.tlpOut || s.buf.HasMarked() {
		return
	}
	now := s.loop.Now()
	seg := s.buf.Newest()
	if seg == nil {
		return // zero inflight: nothing to probe
	}
	s.retransmit(now, seg)
	s.rack.tlpOut = true
	s.rack.tlpHighPkt = seg.PktSeq // the fresh number retransmit assigned
	s.Stats.TLPProbes++
	s.mTLPProbes.Inc()
	s.tracer.TLPProbe(now, s.cfg.ConnID, seg.Seq, seg.PktSeq, seg.Len, s.rack.lastPTO)
	// RFC 8985 §7.3: the probe restarts the timeout so the RTO measures
	// from the most recent transmission.
	s.rtoTimer.ResetAfter(s.rto())
}

// ProbeInFlight reports whether the latest tail loss probe went out under a
// packet number the peer has not acknowledged: its acknowledgment is still
// to come, even once every byte is acknowledged (the probe was spurious).
// It is false under a scheme whose acknowledgments carry no packet numbers:
// there no acknowledgment can be told to answer the probe.
func (s *Sender) ProbeInFlight() bool {
	return s.rack != nil && s.scheme.acksPktNumbers() && s.Stats.TLPProbes > 0 &&
		s.rack.tlpHighPkt > s.largestAckedPkt
}
