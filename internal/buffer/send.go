// Package buffer implements the transport's sender retransmission buffer
// and receiver reassembly buffer.
//
// The sender buffer maintains the paper's (SEQ, PKT.SEQ) two-tuple per
// in-flight segment (§5.1): a byte range plus the packet number of its most
// recent transmission. Retransmitting replaces the tuple's packet number
// with the fresh one, so stale loss reports for superseded numbers are
// ignored without extra state.
//
// The receiver buffer reassembles the bytestream and accounts the bytes
// blocked behind the first hole (head-of-line blocking), which Figure 5(a)
// of the paper measures.
package buffer

import (
	"sort"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// Segment is one in-flight unit of the bytestream at the sender.
type Segment struct {
	Seq    uint64 // byte offset
	Len    int    // payload length
	PktSeq uint64 // packet number of the most recent transmission
	FIN    bool   // segment carries the end-of-stream marker

	// Stream-frame identity (stream-multiplexed connections). Seq/Len still
	// describe the connection-level footprint — for a StreamFIN segment Len
	// includes the one phantom byte that carries the stream FIN through the
	// retransmission machinery.
	HasStream bool
	StreamID  uint32
	StreamOff uint64
	StreamFIN bool

	SentAt      sim.Time // departure time of the most recent transmission
	Retransmits int      // how many times this byte range was re-sent
	LossMarked  bool     // a loss report for the current PktSeq is pending service
	lastRetx    sim.Time // last retransmission time (for the once-per-RTT rule)
	hasRetx     bool
	released    bool // removed from the buffer (acknowledged)
	// deliveredAtSend snapshots the buffer's released-bytes counter at the
	// segment's (re)transmission, anchoring BBR-style delivery-rate
	// samples: rate = (released_now − deliveredAtSend) / (now − SentAt).
	deliveredAtSend int64
}

// End returns the byte offset one past the segment.
func (s *Segment) End() uint64 { return s.Seq + uint64(s.Len) }

// SendBuffer tracks unacknowledged segments, indexed both by byte sequence
// and by the packet number of their latest transmission.
type SendBuffer struct {
	bySeq map[uint64]*Segment // keyed by Seq
	byPkt map[uint64]*Segment // keyed by current PktSeq
	// order holds Seq values in insertion (stream) order; entries released
	// out of order (selective acks) go stale and are skipped on iteration.
	// head indexes the first potentially-live entry, advancing as the
	// cumulative ack moves, so per-ack processing is amortized O(released).
	order []uint64
	head  int
	bytes int // unacked payload bytes

	// oldestFloor is a monotone lower bound for OldestPktSeq: packet
	// numbers are never reused, so the scan resumes where it left off.
	oldestFloor uint64

	// releasedBytes counts payload bytes ever acknowledged (cumulatively or
	// selectively) — the sender-side delivered-data counter BBR-style rate
	// sampling needs (cumack jumps after hole repairs must not look like
	// delivery-rate spikes).
	releasedBytes int64

	// Delivery-rate sample anchor: the most recently *sent* segment
	// released in the current acknowledgment batch.
	rateValid           bool
	rateSentAt          sim.Time
	rateDeliveredAtSend int64

	// marked tracks loss-marked segments in ascending Seq order so hot
	// paths never scan or sort the whole buffer. Entries go stale when a
	// segment is retransmitted (mark cleared) or released; markedLive
	// counts the rest and compaction runs only when stale entries dominate.
	marked     []*Segment
	markedLive int

	// tsorted is the transmission-time-ordered scan list RACK loss
	// detection walks: one entry per (re)transmission, appended in send
	// order (send times are monotone within a connection), consumed as a
	// prefix. An entry goes stale when its segment was released, was
	// retransmitted since (SentAt moved), or is already loss-marked.
	tsorted []tsEntry
	tsHead  int

	// RACK delivery state: the most recently *transmitted* segment ever
	// acknowledged — RFC 8985's (RACK.xmit_ts, RACK.end_seq) pair, keyed
	// here by packet number since retransmissions get fresh PKT.SEQs.
	rackValid    bool
	rackXmitTime sim.Time
	rackPktSeq   uint64

	// Reordering evidence: a segment released on its original transmission
	// after a later transmission had already been acked by a *previous*
	// acknowledgment (batchRackPkt snapshots rackPktSeq per ack), or
	// released while loss-marked without ever being retransmitted (the mark
	// was provably premature). Cumulative count; the sender diffs it per
	// ack to widen the RACK reorder window.
	reorders     int64
	batchRackPkt uint64

	// Per-ack context set by BeginRateSample: the ack's arrival time and
	// the path's minimum RTT, used to reject ambiguous acks of
	// retransmitted segments from the RACK clock.
	ackNow      sim.Time
	ackRTTFloor sim.Time

	// OnRelease, when set, observes every segment release (each segment is
	// released exactly once, whichever acknowledgment path got there first).
	// The stream layer uses it to credit acknowledged frame bytes back to
	// the owning stream.
	OnRelease func(*Segment)
}

// tsEntry pins a segment at one transmission time in the time-ordered
// RACK scan list.
type tsEntry struct {
	seg    *Segment
	sentAt sim.Time
}

// live reports whether the entry still describes its segment's current,
// unacknowledged, unmarked transmission.
func (e tsEntry) live() bool {
	return !e.seg.released && !e.seg.LossMarked && e.seg.SentAt == e.sentAt
}

// NewSendBuffer returns an empty send buffer.
func NewSendBuffer() *SendBuffer {
	return &SendBuffer{
		bySeq: make(map[uint64]*Segment),
		byPkt: make(map[uint64]*Segment),
	}
}

// Insert registers a freshly transmitted segment.
func (b *SendBuffer) Insert(seg *Segment) {
	if _, dup := b.bySeq[seg.Seq]; dup {
		panic("buffer: duplicate segment insert")
	}
	seg.deliveredAtSend = b.releasedBytes
	b.bySeq[seg.Seq] = seg
	b.byPkt[seg.PktSeq] = seg
	b.order = append(b.order, seg.Seq)
	b.bytes += seg.Len
	b.tsorted = append(b.tsorted, tsEntry{seg: seg, sentAt: seg.SentAt})
}

// Retransmitted updates a segment's packet number after it was re-sent:
// the old PKT.SEQ mapping is dropped (paper §5.1: "the PKT.SEQ ... be
// always replaced and updated by the latest PKT.SEQ").
func (b *SendBuffer) Retransmitted(seg *Segment, newPktSeq uint64, now sim.Time) {
	delete(b.byPkt, seg.PktSeq)
	seg.PktSeq = newPktSeq
	seg.SentAt = now
	seg.Retransmits++
	if seg.LossMarked {
		seg.LossMarked = false
		b.markedLive--
	}
	seg.lastRetx = now
	seg.hasRetx = true
	seg.deliveredAtSend = b.releasedBytes
	b.byPkt[newPktSeq] = seg
	b.tsorted = append(b.tsorted, tsEntry{seg: seg, sentAt: now})
}

// MayRetransmit reports whether the once-per-RTT retransmission rule allows
// re-sending the segment at time now (paper §5.1: "the sender only
// retransmits a specific packet once per RTT").
func (b *SendBuffer) MayRetransmit(seg *Segment, now sim.Time, rtt sim.Time) bool {
	return !seg.hasRetx || now-seg.lastRetx >= rtt
}

// ByPktSeq returns the segment whose most recent transmission used pktSeq,
// or nil (e.g. the report refers to a superseded transmission).
func (b *SendBuffer) ByPktSeq(pktSeq uint64) *Segment { return b.byPkt[pktSeq] }

// AckBytes removes every segment fully below cumAck (cumulative byte
// acknowledgment) and returns the number of segments released. Because
// order ascends in Seq, the release is a prefix: amortized O(released).
func (b *SendBuffer) AckBytes(cumAck uint64) int {
	released := 0
	for b.head < len(b.order) {
		seq := b.order[b.head]
		seg, ok := b.bySeq[seq]
		if !ok {
			b.head++ // released earlier via selective ack
			continue
		}
		if seg.End() > cumAck {
			break
		}
		b.release(seg)
		released++
		b.head++
	}
	b.maybeCompactOrder()
	return released
}

// maybeCompactOrder reclaims the consumed prefix once it dominates.
func (b *SendBuffer) maybeCompactOrder() {
	if b.head > 1024 && b.head*2 > len(b.order) {
		b.order = append(b.order[:0:0], b.order[b.head:]...)
		b.head = 0
	}
}

// AckPktRanges removes segments whose current packet number lies in any of
// the acked PKT.SEQ ranges. Returns the released count.
func (b *SendBuffer) AckPktRanges(ranges []seqspace.Range) int {
	released := 0
	for _, r := range ranges {
		// Iterate the smaller side: for narrow ranges walk the range,
		// otherwise scan the map.
		if r.Len() <= uint64(len(b.byPkt)) {
			for pkt := r.Lo; pkt < r.Hi; pkt++ {
				if seg, ok := b.byPkt[pkt]; ok {
					b.release(seg)
					released++
				}
			}
		} else {
			for pkt, seg := range b.byPkt {
				if r.Contains(pkt) {
					b.release(seg)
					released++
				}
			}
		}
	}
	// Released entries go stale in order and are skipped on iteration.
	return released
}

func (b *SendBuffer) release(seg *Segment) {
	delete(b.bySeq, seg.Seq)
	delete(b.byPkt, seg.PktSeq)
	b.bytes -= seg.Len
	b.releasedBytes += int64(seg.Len)
	if !b.rateValid || seg.SentAt >= b.rateSentAt {
		b.rateValid = true
		b.rateSentAt = seg.SentAt
		b.rateDeliveredAtSend = seg.deliveredAtSend
	}
	// Reordering evidence, judged before the mark is cleared below. Only
	// original transmissions count: a retransmission acked late proves
	// nothing about network ordering.
	if seg.Retransmits == 0 {
		if seg.LossMarked {
			// Marked lost, never retransmitted, yet the original arrived:
			// the reorder window was provably too narrow.
			b.reorders++
		} else if b.batchRackPkt > 0 && seg.PktSeq < b.batchRackPkt {
			// A later transmission was acked by an *earlier* ack (the
			// per-ack snapshot keeps same-ack batches, whose release order
			// is arbitrary, from counting).
			b.reorders++
		}
	}
	// Advance the RACK most-recently-sent-and-acked state — unless the
	// segment was retransmitted and the implied RTT is below the path
	// floor: that delivery was of an earlier transmission, and taking the
	// retransmit timestamp would spuriously age everything in flight.
	ambiguous := seg.Retransmits > 0 && b.ackRTTFloor > 0 &&
		b.ackNow-seg.SentAt < b.ackRTTFloor
	if !ambiguous && (!b.rackValid || seg.SentAt > b.rackXmitTime ||
		(seg.SentAt == b.rackXmitTime && seg.PktSeq > b.rackPktSeq)) {
		b.rackValid = true
		b.rackXmitTime = seg.SentAt
		b.rackPktSeq = seg.PktSeq
	}
	seg.released = true
	if seg.LossMarked {
		seg.LossMarked = false
		b.markedLive--
	}
	if b.OnRelease != nil {
		b.OnRelease(seg)
	}
}

// MarkLossByPktRanges flags segments in the reported lost PKT.SEQ ranges.
// Only segments whose *current* transmission is in a range are marked —
// reports about superseded packet numbers are stale and skipped. Returns the
// marked segments in stream order.
func (b *SendBuffer) MarkLossByPktRanges(ranges []seqspace.Range) []*Segment {
	var marked []*Segment
	for _, r := range ranges {
		for pkt := r.Lo; pkt < r.Hi; pkt++ {
			if seg, ok := b.byPkt[pkt]; ok && !seg.LossMarked {
				b.MarkLoss(seg)
				marked = append(marked, seg)
			}
		}
	}
	sort.Slice(marked, func(i, j int) bool { return marked[i].Seq < marked[j].Seq })
	return marked
}

// MarkLoss flags a single segment (used by sender-side detection paths),
// inserting it at its sorted position in the marked list.
func (b *SendBuffer) MarkLoss(seg *Segment) {
	if seg.LossMarked || seg.released {
		return
	}
	seg.LossMarked = true
	b.markedLive++
	n := len(b.marked)
	if n == 0 || b.marked[n-1].Seq <= seg.Seq {
		b.marked = append(b.marked, seg)
		return
	}
	i := sort.Search(n, func(i int) bool { return b.marked[i].Seq > seg.Seq })
	b.marked = append(b.marked, nil)
	copy(b.marked[i+1:], b.marked[i:])
	b.marked[i] = seg
}

// markedEntryLive reports whether a marked-list entry is still actionable.
func markedEntryLive(seg *Segment) bool { return seg.LossMarked && !seg.released }

// compactMarked drops stale entries once they dominate the list.
func (b *SendBuffer) compactMarked() {
	if len(b.marked)-b.markedLive <= len(b.marked)/2 || len(b.marked) < 64 {
		return
	}
	kept := b.marked[:0]
	for _, seg := range b.marked {
		if markedEntryLive(seg) {
			kept = append(kept, seg)
		}
	}
	b.marked = kept
}

// HasMarked reports whether any segment is flagged lost.
func (b *SendBuffer) HasMarked() bool { return b.markedLive > 0 }

// ForEachEligibleRetransmit visits every loss-marked segment whose
// once-per-RTT cooldown has expired, in stream order, in one pass. The
// callback may retransmit the segment (clearing its mark); returning false
// stops the walk.
func (b *SendBuffer) ForEachEligibleRetransmit(now, rtt sim.Time, fn func(*Segment) bool) {
	if b.markedLive == 0 {
		return
	}
	b.compactMarked()
	for i := 0; i < len(b.marked); i++ {
		seg := b.marked[i]
		if markedEntryLive(seg) && b.MayRetransmit(seg, now, rtt) {
			if !fn(seg) {
				return
			}
		}
	}
}

// Oldest returns the unacked segment with the lowest byte offset, or nil.
func (b *SendBuffer) Oldest() *Segment {
	for b.head < len(b.order) {
		if seg, ok := b.bySeq[b.order[b.head]]; ok {
			return seg
		}
		b.head++
	}
	return nil
}

// Bytes returns the total unacknowledged payload bytes.
func (b *SendBuffer) Bytes() int { return b.bytes }

// ReleasedBytes returns the cumulative payload bytes acknowledged
// (cumulatively or selectively) since the buffer was created.
func (b *SendBuffer) ReleasedBytes() int64 { return b.releasedBytes }

// BeginRateSample resets the delivery-rate anchor and snapshots the RACK
// delivery state for reorder detection; call before processing one
// acknowledgment's releases. now is the ack's arrival time and rttFloor
// the path's minimum RTT (0 disables the check): together they
// disambiguate acks of retransmitted segments — a release whose implied
// RTT is below the floor was a delivery of an *earlier* transmission, so
// its retransmit timestamp must not advance the RACK clock (RFC 8985
// §6.2 step 2).
func (b *SendBuffer) BeginRateSample(now, rttFloor sim.Time) {
	b.rateValid = false
	b.ackNow, b.ackRTTFloor = now, rttFloor
	if b.rackValid {
		b.batchRackPkt = b.rackPktSeq
	}
}

// RackState returns the transmission time and packet number of the most
// recently sent segment ever acknowledged (RFC 8985 RACK.xmit_ts /
// RACK.end_seq); ok is false before the first release.
func (b *SendBuffer) RackState() (xmitTime sim.Time, pktSeq uint64, ok bool) {
	return b.rackXmitTime, b.rackPktSeq, b.rackValid
}

// ReorderEvents returns the cumulative count of observed packet
// reorderings (original transmissions acknowledged out of send order, or
// loss marks disproven by a late original arrival). Diff across acks to
// react to fresh evidence.
func (b *SendBuffer) ReorderEvents() int64 { return b.reorders }

// ScanRackLosses walks unacknowledged segments in transmission-time order,
// visiting only those sent before the RACK most-recently-delivered
// transmission (cutoff/cutoffPkt): strictly earlier send times qualify, and
// timestamp ties — a paced burst emits many segments at one instant — break
// by packet number like RFC 8985 breaks them by sequence, so the unacked
// tail of the very burst the delivered segment came from is not mistaken
// for "older than delivered". fn returns true when it marked the segment
// lost (the entry is consumed); returning false stops the walk — every
// later entry was sent even more recently, so its loss deadline is further
// out. The returned sentAt/pending report the first un-marked candidate's
// transmission time so the caller can arm a reorder-window re-check timer.
func (b *SendBuffer) ScanRackLosses(cutoff sim.Time, cutoffPkt uint64, fn func(*Segment) bool) (sentAt sim.Time, pending bool) {
	for b.tsHead < len(b.tsorted) {
		e := b.tsorted[b.tsHead]
		if !e.live() {
			b.tsorted[b.tsHead] = tsEntry{} // release the *Segment
			b.tsHead++
			continue
		}
		// Entries order by (sentAt, PktSeq), so the first non-candidate ends
		// the candidate prefix.
		if e.sentAt > cutoff || (e.sentAt == cutoff && e.seg.PktSeq >= cutoffPkt) {
			return 0, false
		}
		if !fn(e.seg) {
			return e.sentAt, true
		}
		// fn marked the segment: the entry is stale now (LossMarked), and
		// a future retransmission re-appends it with a fresh timestamp.
		b.tsorted[b.tsHead] = tsEntry{}
		b.tsHead++
	}
	b.maybeCompactTsorted()
	return 0, false
}

// maybeCompactTsorted reclaims the consumed prefix once it dominates.
func (b *SendBuffer) maybeCompactTsorted() {
	if b.tsHead > 1024 && b.tsHead*2 > len(b.tsorted) {
		b.tsorted = append(b.tsorted[:0:0], b.tsorted[b.tsHead:]...)
		b.tsHead = 0
	}
}

// Newest returns the unacked segment with the highest byte offset (the
// tail a TLP probe retransmits), or nil when nothing is outstanding.
func (b *SendBuffer) Newest() *Segment {
	for i := len(b.order) - 1; i >= b.head; i-- {
		if seg, ok := b.bySeq[b.order[i]]; ok {
			return seg
		}
	}
	return nil
}

// RateSample returns a BBR-style delivery-rate sample for the releases
// since BeginRateSample: delivered bytes over the send-anchored interval.
// ok is false when nothing was released or the interval is degenerate.
func (b *SendBuffer) RateSample(now sim.Time) (bps float64, ok bool) {
	if !b.rateValid || now <= b.rateSentAt {
		return 0, false
	}
	bytes := b.releasedBytes - b.rateDeliveredAtSend
	if bytes <= 0 {
		return 0, false
	}
	return float64(bytes) * 8 / (now - b.rateSentAt).Seconds(), true
}

// Len returns the number of unacknowledged segments.
func (b *SendBuffer) Len() int { return len(b.bySeq) }

// NextRetransmitTime returns the earliest time any loss-marked segment
// becomes eligible under the once-per-RTT rule; ok is false when nothing is
// marked.
func (b *SendBuffer) NextRetransmitTime(rtt sim.Time) (sim.Time, bool) {
	if b.markedLive == 0 {
		return 0, false
	}
	b.compactMarked()
	var best sim.Time
	found := false
	for _, seg := range b.marked {
		if !markedEntryLive(seg) {
			continue
		}
		at := sim.Time(0)
		if seg.hasRetx {
			at = seg.lastRetx + rtt
		}
		if !found || at < best {
			best = at
			found = true
		}
		if at == 0 {
			break // cannot beat "eligible now"
		}
	}
	return best, found
}

// ReleasePktBelow removes every segment whose current packet number is
// below cum: the receiver's cumulative packet number guarantees all of them
// were received (possibly crowded out of the selective-ack block budget).
// The scan is monotone from the oldest floor, so it is amortized O(1) per
// packet number ever used.
func (b *SendBuffer) ReleasePktBelow(cum uint64) int {
	released := 0
	for b.oldestFloor < cum {
		if seg, ok := b.byPkt[b.oldestFloor]; ok {
			b.release(seg)
			released++
		}
		b.oldestFloor++
	}
	return released
}

// OldestPktSeq returns the smallest packet number among the current
// transmissions of unacknowledged segments; when nothing is outstanding it
// returns next (the sender's next packet number). Every number below the
// result is dead: acknowledged or superseded by a retransmission.
func (b *SendBuffer) OldestPktSeq(next uint64) uint64 {
	if len(b.byPkt) == 0 {
		return next
	}
	for b.oldestFloor < next {
		if _, ok := b.byPkt[b.oldestFloor]; ok {
			return b.oldestFloor
		}
		b.oldestFloor++
	}
	return next
}

// Walk calls fn on every unacked segment in stream order; fn returning
// false stops the walk.
func (b *SendBuffer) Walk(fn func(*Segment) bool) {
	for _, seq := range b.order[b.head:] {
		if seg, ok := b.bySeq[seq]; ok {
			if !fn(seg) {
				return
			}
		}
	}
}
