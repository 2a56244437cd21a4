package buffer

import (
	"cmp"
	"slices"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// model is the send buffer's reference: the unacknowledged segments in one
// slice in stream order, every query a linear scan, no index to keep in
// step. It states SendBuffer's contract, not its representation; the
// differential tests hold the two to the same answers.
type model struct {
	segs []*Segment

	releasedBytes int64
	reorders      int64
	rackValid     bool
	rackXmit      sim.Time
	rackPkt       uint64
	batchRackPkt  uint64
	ackNow        sim.Time
	ackFloor      sim.Time

	onRelease func(*Segment)
}

func (m *model) Insert(seg Segment) { m.segs = append(m.segs, &seg) }

func (m *model) ByPktSeq(pkt uint64) *Segment {
	for _, s := range m.segs {
		if s.PktSeq == pkt {
			return s
		}
	}
	return nil
}

func (m *model) Retransmitted(s *Segment, pkt uint64, now sim.Time) {
	s.PktSeq, s.SentAt, s.LossMarked = pkt, now, false
	s.Retransmits++
	s.lastRetx, s.hasRetx = now, true
}

// releaseIf acknowledges every segment acked selects. Within one
// acknowledgment the order of releases changes no result.
func (m *model) releaseIf(acked func(*Segment) bool) int {
	var kept []*Segment
	for _, s := range m.segs {
		if !acked(s) {
			kept = append(kept, s)
			continue
		}
		m.releasedBytes += int64(s.Len)
		if s.Retransmits == 0 && (s.LossMarked || (m.batchRackPkt > 0 && s.PktSeq < m.batchRackPkt)) {
			m.reorders++
		}
		ambiguous := s.Retransmits > 0 && m.ackFloor > 0 && m.ackNow-s.SentAt < m.ackFloor
		if !ambiguous && (!m.rackValid || s.SentAt > m.rackXmit ||
			(s.SentAt == m.rackXmit && s.PktSeq > m.rackPkt)) {
			m.rackValid, m.rackXmit, m.rackPkt = true, s.SentAt, s.PktSeq
		}
		s.LossMarked, s.released = false, true
		if m.onRelease != nil {
			m.onRelease(s)
		}
	}
	released := len(m.segs) - len(kept)
	m.segs = kept
	return released
}

func (m *model) AckBytes(cum uint64) int {
	return m.releaseIf(func(s *Segment) bool { return s.End() <= cum })
}

func inAny(ranges []seqspace.Range, pkt uint64) bool {
	return slices.ContainsFunc(ranges, func(r seqspace.Range) bool { return r.Contains(pkt) })
}

func (m *model) AckPktRanges(ranges []seqspace.Range) int {
	return m.releaseIf(func(s *Segment) bool { return inAny(ranges, s.PktSeq) })
}

func (m *model) ReleasePktBelow(cum uint64) int {
	return m.releaseIf(func(s *Segment) bool { return s.PktSeq < cum })
}

func (m *model) MarkLossByPktRanges(ranges []seqspace.Range) []*Segment {
	var marked []*Segment
	for _, s := range m.segs {
		if !s.LossMarked && inAny(ranges, s.PktSeq) {
			s.LossMarked = true
			marked = append(marked, s)
		}
	}
	return marked
}

func (m *model) HasMarked() bool {
	return slices.ContainsFunc(m.segs, func(s *Segment) bool { return s.LossMarked })
}

func (m *model) ForEachEligibleRetransmit(now, rtt sim.Time, fn func(*Segment) bool) {
	for _, s := range m.segs {
		if s.LossMarked && s.mayRetransmit(now, rtt) && !fn(s) {
			return
		}
	}
}

// ScanRackLosses needs no cursor: whatever an earlier scan passed over is
// acknowledged, marked, or retransmitted under a higher packet number.
func (m *model) ScanRackLosses(cutoff sim.Time, cutoffPkt uint64, fn func(*Segment) bool) (sim.Time, bool) {
	bySend := slices.Clone(m.segs)
	slices.SortFunc(bySend, func(x, y *Segment) int { return cmp.Compare(x.PktSeq, y.PktSeq) })
	for _, s := range bySend {
		if s.LossMarked {
			continue
		}
		if s.SentAt > cutoff || (s.SentAt == cutoff && s.PktSeq >= cutoffPkt) {
			return 0, false
		}
		if !fn(s) {
			return s.SentAt, true
		}
	}
	return 0, false
}

func (m *model) OldestPktSeq(next uint64) uint64 {
	for _, s := range m.segs {
		next = min(next, s.PktSeq)
	}
	return next
}

func (m *model) Bytes() int {
	n := 0
	for _, s := range m.segs {
		n += s.Len
	}
	return n
}
