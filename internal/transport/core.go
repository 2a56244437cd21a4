package transport

// The TACK acknowledgment mechanism — the paper's primary contribution
// (§4–5) — as the receiver- and sender-side pieces the engine composes:
//
//   - lossTracker: receiver-based loss detection over the PKT.SEQ space
//     with a reordering settle delay (§5.1, §7), driving loss-event IACKs
//     and remembering which losses were reported so TACKs can repeat them.
//   - blockBudget: Appendix A's analysis of when a TACK must carry more
//     unacked blocks (Eq. 6/9) and how many more (ΔQ), as a function of the
//     data-path loss ρ, ACK-path loss ρ′, and the bdp regime.
//   - buildBlocks: assembles the acked/unacked lists for a TACK under an
//     MSS-bounded block budget, preferring the newest acked blocks and the
//     oldest unacked blocks (§5.1).
//   - windowMonitor: decides when an abrupt receive-window change warrants
//     a window-update IACK (§5.3).
//   - ackLossEstimator: sender-side ρ′ estimation from ACK sequence gaps
//     (§5.4).
//
// The acknowledgment *timing* discipline lives in package ackpolicy; the
// wire format in package packet.

import (
	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// Params bundles the TACK mechanism constants.
type Params struct {
	// Beta is the periodic-ACK count per RTTmin (paper default 4).
	Beta int
	// L is the byte-counting packet threshold (paper default 2).
	L int
	// Q is the primary number of unacked blocks a TACK reports (the
	// "TACK-poor" configuration uses 1; rich configurations raise the
	// budget adaptively).
	Q int
	// SettleFraction divides RTTmin to obtain the IACK reordering settle
	// delay (paper §7 cites RTTmin/4; 4 is the default).
	SettleFraction int
}

// defaultParams returns the paper's recommended configuration.
func defaultParams() Params {
	return Params{Beta: 4, L: 2, Q: 1, SettleFraction: 4}
}

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	d := defaultParams()
	if p.Beta <= 0 {
		p.Beta = d.Beta
	}
	if p.L <= 0 {
		p.L = d.L
	}
	if p.Q <= 0 {
		p.Q = d.Q
	}
	if p.SettleFraction <= 0 {
		p.SettleFraction = d.SettleFraction
	}
	return p
}

// suspect is a PKT.SEQ gap awaiting its settle delay before being declared
// lost.
type suspect struct {
	r  seqspace.Range
	at sim.Time // when the gap was first observed
}

// lossTracker performs receiver-based loss detection in the packet-number
// space. Because every transmission (including retransmissions) carries a
// fresh, monotonically increasing PKT.SEQ, a gap below the largest received
// number can only mean loss or reordering — never ambiguity about which
// transmission arrived (§5.1).
type lossTracker struct {
	received seqspace.RangeSet // PKT.SEQs seen
	reported seqspace.RangeSet // PKT.SEQs reported lost via IACK
	// reportedAt timestamps each reported range so stale entries can be
	// pruned: a reported PKT.SEQ hole never fills when the sender repaired
	// it with a retransmission (which carries a fresh number), so holes are
	// dropped once they have been outstanding long enough for the repair
	// to have happened (a few RTTs; the sender's RTO backstops the rest).
	reportedAt []suspect
	suspects   []suspect
	largest    uint64
	have       bool

	// Interval accounting for the receiver-computed loss rate ρ.
	intervalBase     uint64 // largest at last interval close
	intervalReceived int
}

// newLossTracker returns an empty tracker.
func newLossTracker() *lossTracker { return &lossTracker{} }

// Largest returns the largest PKT.SEQ received (and whether any packet
// arrived yet).
func (lt *lossTracker) Largest() (uint64, bool) { return lt.largest, lt.have }

// OnPacket records the arrival of pktSeq at time now and returns any newly
// suspected gap (the PKT.SEQs skipped over), which starts its settle timer.
func (lt *lossTracker) OnPacket(now sim.Time, pktSeq uint64) (newGap seqspace.Range, gapped bool) {
	lt.intervalReceived++
	if !lt.have {
		lt.have = true
		lt.largest = pktSeq
		lt.received.AddValue(pktSeq)
		if pktSeq > 0 {
			g := seqspace.Range{Lo: 0, Hi: pktSeq}
			lt.suspects = append(lt.suspects, suspect{r: g, at: now})
			return g, true
		}
		return seqspace.Range{}, false
	}
	lt.received.AddValue(pktSeq)
	if pktSeq > lt.largest+1 {
		g := seqspace.Range{Lo: lt.largest + 1, Hi: pktSeq}
		lt.suspects = append(lt.suspects, suspect{r: g, at: now})
		lt.largest = pktSeq
		return g, true
	}
	if pktSeq > lt.largest {
		lt.largest = pktSeq
	}
	return seqspace.Range{}, false
}

// dueLoss is one settled loss range plus the time its gap was first
// observed, so callers can report the detection latency (observation →
// declaration) to the telemetry layer.
type dueLoss struct {
	Range seqspace.Range
	// Observed is when the gap first appeared (the settle timer's start).
	Observed sim.Time
}

// DueLossDetails returns the suspected ranges whose settle delay has
// elapsed and that are still missing, each with its observation time; they
// are marked as reported (the IACK trigger). The caller sends one loss IACK
// covering the returned ranges.
func (lt *lossTracker) DueLossDetails(now sim.Time, settle sim.Time) []dueLoss {
	var due []dueLoss
	kept := lt.suspects[:0]
	for _, s := range lt.suspects {
		if now-s.at < settle {
			kept = append(kept, s)
			continue
		}
		// Reduce the suspect range to what is still missing.
		for _, missing := range lt.received.Gaps(s.r.Lo, s.r.Hi) {
			due = append(due, dueLoss{Range: missing, Observed: s.at})
			lt.reported.AddRange(missing)
			lt.reportedAt = append(lt.reportedAt, suspect{r: missing, at: now})
		}
	}
	lt.suspects = kept
	return due
}

// NextDue returns the earliest settle deadline among pending suspects
// (ok=false when none).
func (lt *lossTracker) NextDue(settle sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, s := range lt.suspects {
		d := s.at + settle
		if !found || d < best {
			best = d
			found = true
		}
	}
	return best, found
}

// SuspectFrontier returns the lowest PKT.SEQ of any pending (unsettled)
// suspect; ok is false when no suspects are pending. Below the frontier,
// the reported set is authoritative: every missing PKT.SEQ has been
// declared lost.
func (lt *lossTracker) SuspectFrontier() (uint64, bool) {
	var best uint64
	found := false
	for _, s := range lt.suspects {
		if !found || s.r.Lo < best {
			best = s.r.Lo
			found = true
		}
	}
	return best, found
}

// ReportedMissing returns the PKT.SEQ ranges that were reported lost via
// IACK and have still not arrived — the pool TACKs draw their unacked list
// from (§5.1: "TACK only reports missing packets that have been reported
// by loss-event-driven IACKs").
func (lt *lossTracker) ReportedMissing() []seqspace.Range {
	var out []seqspace.Range
	for _, r := range lt.reported.Ranges() {
		out = append(out, lt.received.Gaps(r.Lo, r.Hi)...)
	}
	return out
}

// AckedRanges returns the received PKT.SEQ ranges (the acked list).
func (lt *lossTracker) AckedRanges() []seqspace.Range { return lt.received.Ranges() }

// Received reports whether pktSeq has arrived.
func (lt *lossTracker) Received(pktSeq uint64) bool { return lt.received.Contains(pktSeq) }

// CloseInterval ends a loss-rate measurement interval (aligned with TACK
// emission) and returns ρ for the interval in [0,1].
func (lt *lossTracker) CloseInterval() float64 {
	if !lt.have {
		return 0
	}
	expected := int(lt.largest - lt.intervalBase)
	if lt.intervalBase == 0 && lt.largest > 0 {
		expected++ // packet number 0 also expected in the first interval
	}
	rcv := lt.intervalReceived
	lt.intervalBase = lt.largest
	lt.intervalReceived = 0
	if expected <= 0 || rcv >= expected {
		return 0
	}
	return float64(expected-rcv) / float64(expected)
}

// Compact drops tracking state for PKT.SEQs below floor (all fully
// processed), bounding memory on long flows.
func (lt *lossTracker) Compact(floor uint64) {
	lt.received.RemoveBelow(floor)
	lt.reported.RemoveBelow(floor)
	kept := lt.suspects[:0]
	for _, s := range lt.suspects {
		if s.r.Hi > floor {
			if s.r.Lo < floor {
				s.r.Lo = floor
			}
			kept = append(kept, s)
		}
	}
	lt.suspects = kept
	keptRep := lt.reportedAt[:0]
	for _, s := range lt.reportedAt {
		if s.r.Hi > floor {
			keptRep = append(keptRep, s)
		}
	}
	lt.reportedAt = keptRep
}

// blockBudget computes how many unacked blocks a TACK should carry
// (Appendix A). Inputs: the configured primary budget Q, measured loss
// rates ρ (data path) and ρ′ (ACK path), the bandwidth-delay product in
// bytes, and the L/β/MSS constants.
type blockBudget struct {
	p Params
}

// newBlockBudget returns a budget calculator for params p.
func newBlockBudget(p Params) *blockBudget { return &blockBudget{p: p.withDefaults()} }

// largeBDP reports whether the flow is in the periodic-TACK regime
// (bdp ≥ β·L·MSS).
func (b *blockBudget) largeBDP(bdpBytes float64) bool {
	return bdpBytes >= float64(b.p.Beta*b.p.L*ackpolicy.MSS)
}

// RichThreshold returns the ACK-path loss rate ρ′ above which a TACK must
// carry more than the primary Q blocks (Eq. 6/9). An infinite threshold is
// returned as 1 (ρ′ can never exceed it) when the data path is loss-free.
func (b *blockBudget) RichThreshold(rho, bdpBytes float64) float64 {
	if rho <= 0 {
		return 1
	}
	var th float64
	if b.largeBDP(bdpBytes) {
		th = float64(b.p.Q) * ackpolicy.MSS / (rho * bdpBytes)
	} else {
		th = float64(b.p.Q) / (rho * float64(b.p.L))
	}
	if th > 1 {
		th = 1
	}
	return th
}

// Blocks returns the number of unacked blocks the next TACK should report:
// Q when ρ′ is at or below the threshold, Q+ΔQ above it (Appendix A's
// ΔQ = ρ·ρ′·bdp/MSS − Q in the large-bdp regime, ρ·ρ′·L − Q in the small).
func (b *blockBudget) Blocks(rho, rhoPrime, bdpBytes float64) int {
	q := b.p.Q
	if rho <= 0 || rhoPrime <= b.RichThreshold(rho, bdpBytes) {
		return q
	}
	var need float64
	if b.largeBDP(bdpBytes) {
		need = rho * rhoPrime * bdpBytes / ackpolicy.MSS
	} else {
		need = rho * rhoPrime * float64(b.p.L)
	}
	n := int(need + 0.999)
	if n < q {
		n = q
	}
	return n
}

// buildBlocks selects the block lists for a TACK under a budget: up to
// maxAcked acked blocks (preferring the largest packet numbers — the
// freshest information) and up to maxUnacked unacked blocks (preferring the
// smallest — the oldest outstanding losses), per §5.1.
func buildBlocks(acked, unacked []seqspace.Range, maxAcked, maxUnacked int) (a, u []seqspace.Range) {
	if n := len(acked); n > maxAcked {
		acked = acked[n-maxAcked:]
	}
	if len(unacked) > maxUnacked {
		unacked = unacked[:maxUnacked]
	}
	a = append(a, acked...)
	u = append(u, unacked...)
	return a, u
}

// windowMonitor triggers window-update IACKs on abrupt receive-window
// changes (§4.4 item 2, §5.3): a zero window must be announced at once, and
// so must the release of a large volume of buffered data (more than a
// quarter of capacity).
type windowMonitor struct {
	// release is the "large volume" in bytes; stream reads that reopen
	// this much of the window kick the receiver (stream.RecvDeps).
	release      int
	lastAnnounce uint64
}

// newWindowMonitor returns a monitor for a receive buffer of the given
// capacity in bytes.
func newWindowMonitor(capacity int) *windowMonitor {
	return &windowMonitor{release: capacity / 4, lastAnnounce: uint64(capacity)}
}

// Check inspects the current advertised window and reports whether an
// immediate IACK is warranted. It records the announcement when it fires.
func (w *windowMonitor) Check(window uint64) bool {
	if window == 0 && w.lastAnnounce != 0 {
		w.lastAnnounce = 0
		return true
	}
	if int64(window)-int64(w.lastAnnounce) > int64(w.release) {
		w.lastAnnounce = window
		return true
	}
	return false
}

// OnAckSent records that window was announced through a regular TACK, so
// only future *abrupt* changes trigger IACKs.
func (w *windowMonitor) OnAckSent(window uint64) { w.lastAnnounce = window }

// ackLossEstimator measures the ACK-path loss rate ρ′ at the sender from
// gaps in the ACK sequence numbers carried by TACKs/IACKs (§5.4).
type ackLossEstimator struct {
	largest  uint64
	received int
	have     bool
}

// newAckLossEstimator returns an empty estimator.
func newAckLossEstimator() *ackLossEstimator { return &ackLossEstimator{} }

// OnAck records an arriving acknowledgment's sequence number.
func (e *ackLossEstimator) OnAck(ackSeq uint64) {
	e.received++
	if !e.have || ackSeq > e.largest {
		e.largest = ackSeq
		e.have = true
	}
}

// Rate returns the estimated ρ′ in [0,1].
func (e *ackLossEstimator) Rate() float64 {
	if !e.have {
		return 0
	}
	expected := int(e.largest) + 1
	if e.received >= expected {
		return 0
	}
	return float64(expected-e.received) / float64(expected)
}
