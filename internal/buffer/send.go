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
	"cmp"
	"slices"

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
	released    bool // acknowledged; the slot waits for the floor to pass it
}

// End returns the byte offset one past the segment.
func (s *Segment) End() uint64 { return s.Seq + uint64(s.Len) }

// mayRetransmit reports whether the once-per-RTT retransmission rule allows
// re-sending the segment at time now (paper §5.1: "the sender only
// retransmits a specific packet once per RTT").
func (s *Segment) mayRetransmit(now, rtt sim.Time) bool {
	return !s.hasRetx || now-s.lastRetx >= rtt
}

const (
	// ringInitial is a ring's first allocation in slots; a full ring doubles.
	// Rings are allocated on first use (an idle connection holds none) and
	// never shrink: both span highest-sent − cumulative-ack, which the
	// peer's window bounds.
	ringInitial = 32
	// deadSlot marks a packet number that is no segment's current
	// transmission: acknowledged, superseded by a retransmission, or never
	// used.
	deadSlot = ^uint64(0)
)

// ring is a growable power-of-two ring addressed by a dense, ever-increasing
// index: slot i is present for lo ≤ i < hi.
type ring[T any] struct {
	buf    []T
	lo, hi uint64
}

func (r *ring[T]) at(i uint64) *T { return &r.buf[i&uint64(len(r.buf)-1)] }

func (r *ring[T]) push(v T) {
	if n := uint64(len(r.buf)); r.hi-r.lo == n {
		grown := make([]T, max(2*n, ringInitial))
		for i := r.lo; i < r.hi; i++ {
			grown[i&uint64(len(grown)-1)] = r.buf[i&(n-1)]
		}
		r.buf = grown
	}
	*r.at(r.hi) = v
	r.hi++
}

// SendBuffer tracks unacknowledged segments: one record per in-flight byte
// range, reachable by stream position and by the packet number of its
// current transmission.
//
// Packet numbers are dense, never reused and monotone in send time (§5.1),
// so the ring indexed by them is at once the PKT.SEQ lookup, RACK's
// transmission-time order and the oldest-outstanding floor.
//
// Every *Segment handed out points into the segment ring and is valid until
// the next Insert (the only operation that may move the ring).
type SendBuffer struct {
	// segs holds segments in stream order; Insert only ever appends in
	// ascending byte order, so a segment's ring index is its ordinal. Slots
	// released out of order (selective acks) keep their place until the
	// floor passes them: segs.lo is live whenever anything is.
	segs ring[Segment]
	// pkts maps packet number → ordinal of the segment whose *current*
	// transmission it is, or deadSlot; pkts.lo is live whenever anything is.
	pkts ring[uint64]
	// marked lists the ordinals of loss-marked segments, ascending (stream
	// order). An entry leaves when its mark clears (retransmit, release), so
	// every entry is actionable. A list rather than a flag scan because
	// trySend consults it per call and a scan would cost O(window).
	marked []uint64

	end   uint64 // byte offset one past the last inserted segment
	live  int    // unacknowledged segments
	bytes int    // unacknowledged payload bytes
	// scan is the first packet number the RACK scan has not consumed.
	scan uint64

	// releasedBytes counts payload bytes ever acknowledged (cumulatively or
	// selectively) — the sender-side delivered-data counter (cumack jumps
	// after hole repairs must not look like delivery-rate spikes).
	releasedBytes int64

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

	// Per-ack context set by BeginAck: the ack's arrival time and the
	// path's minimum RTT, used to reject ambiguous acks of retransmitted
	// segments from the RACK clock.
	ackNow      sim.Time
	ackRTTFloor sim.Time

	// OnRelease, when set, observes every segment release (each segment is
	// released exactly once, whichever acknowledgment path got there first).
	// The stream layer uses it to credit acknowledged frame bytes back to
	// the owning stream.
	OnRelease func(*Segment)
}

// NewSendBuffer returns an empty send buffer.
func NewSendBuffer() *SendBuffer { return &SendBuffer{} }

// Insert registers a freshly transmitted segment, copying it into the
// buffer. Segments arrive in ascending, non-overlapping byte ranges under
// ever-increasing packet numbers; anything else is a sender bug and panics.
func (b *SendBuffer) Insert(seg Segment) {
	if seg.Seq < b.end {
		panic("buffer: segment inserted out of stream order")
	}
	b.end = seg.End()
	b.pushPkt(seg.PktSeq, b.segs.hi)
	b.segs.push(seg)
	b.live++
	b.bytes += seg.Len
}

// pushPkt records pkt as the current transmission of segment ord. Numbers
// skipped since the previous transmission get dead slots.
func (b *SendBuffer) pushPkt(pkt, ord uint64) {
	if pkt < b.pkts.hi {
		panic("buffer: packet number reused")
	}
	if b.pkts.lo == b.pkts.hi {
		b.pkts.lo, b.pkts.hi = pkt, pkt
	}
	for b.pkts.hi < pkt {
		b.pkts.push(deadSlot)
	}
	b.pkts.push(ord)
}

// Retransmitted updates a segment's packet number after it was re-sent:
// the old PKT.SEQ mapping is dropped (paper §5.1: "the PKT.SEQ ... be
// always replaced and updated by the latest PKT.SEQ").
func (b *SendBuffer) Retransmitted(seg *Segment, newPktSeq uint64, now sim.Time) {
	slot := b.pkts.at(seg.PktSeq)
	ord := *slot
	*slot = deadSlot
	seg.PktSeq = newPktSeq
	seg.SentAt = now
	seg.Retransmits++
	b.unmark(ord, seg)
	seg.lastRetx = now
	seg.hasRetx = true
	b.pushPkt(newPktSeq, ord)
	b.trim()
}

// trim advances both floors past slots nothing refers to any more.
func (b *SendBuffer) trim() {
	for b.segs.lo < b.segs.hi && b.segs.at(b.segs.lo).released {
		b.segs.lo++
	}
	for b.pkts.lo < b.pkts.hi && *b.pkts.at(b.pkts.lo) == deadSlot {
		b.pkts.lo++
	}
}

// ByPktSeq returns the segment whose most recent transmission used pktSeq,
// or nil (e.g. the report refers to a superseded transmission).
func (b *SendBuffer) ByPktSeq(pktSeq uint64) *Segment {
	if pktSeq < b.pkts.lo || pktSeq >= b.pkts.hi {
		return nil
	}
	if ord := *b.pkts.at(pktSeq); ord != deadSlot {
		return b.segs.at(ord)
	}
	return nil
}

// AckBytes removes every segment fully below cumAck (cumulative byte
// acknowledgment) and returns the number of segments released. The release
// is a prefix of the segment ring: amortized O(released).
func (b *SendBuffer) AckBytes(cumAck uint64) int {
	released := 0
	for ord := b.segs.lo; ord < b.segs.hi; ord++ {
		seg := b.segs.at(ord)
		if seg.released {
			continue // released earlier via selective ack
		}
		if seg.End() > cumAck {
			break
		}
		b.release(ord)
		released++
	}
	b.trim()
	return released
}

// AckPktRanges removes segments whose current packet number lies in any of
// the acked PKT.SEQ ranges. Returns the released count.
func (b *SendBuffer) AckPktRanges(ranges []seqspace.Range) int {
	released := 0
	for _, r := range ranges {
		// The ranges are the peer's: clamp to the numbers actually
		// outstanding before walking, so no claim costs more than that.
		for pkt, hi := max(r.Lo, b.pkts.lo), min(r.Hi, b.pkts.hi); pkt < hi; pkt++ {
			if ord := *b.pkts.at(pkt); ord != deadSlot {
				b.release(ord)
				released++
			}
		}
	}
	b.trim()
	return released
}

// ReleasePktBelow removes every segment whose current packet number is
// below cum: the receiver's cumulative packet number guarantees all of them
// were received (possibly crowded out of the selective-ack block budget).
func (b *SendBuffer) ReleasePktBelow(cum uint64) int {
	return b.AckPktRanges([]seqspace.Range{{Hi: cum}})
}

func (b *SendBuffer) release(ord uint64) {
	seg := b.segs.at(ord)
	*b.pkts.at(seg.PktSeq) = deadSlot
	b.live--
	b.bytes -= seg.Len
	b.releasedBytes += int64(seg.Len)
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
			// says nothing about arrival order, from counting).
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
	b.unmark(ord, seg)
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
		// Peer-supplied, like AckPktRanges': clamp before walking.
		for pkt, hi := max(r.Lo, b.pkts.lo), min(r.Hi, b.pkts.hi); pkt < hi; pkt++ {
			if seg := b.ByPktSeq(pkt); seg != nil && !seg.LossMarked {
				b.MarkLoss(seg)
				marked = append(marked, seg)
			}
		}
	}
	slices.SortFunc(marked, func(x, y *Segment) int { return cmp.Compare(x.Seq, y.Seq) })
	return marked
}

// MarkLoss flags a single segment (used by sender-side detection paths),
// inserting it at its sorted position in the marked list.
func (b *SendBuffer) MarkLoss(seg *Segment) {
	if seg.LossMarked || seg.released {
		return
	}
	seg.LossMarked = true
	ord := *b.pkts.at(seg.PktSeq)
	i, _ := slices.BinarySearch(b.marked, ord)
	b.marked = slices.Insert(b.marked, i, ord)
}

// unmark clears seg's loss mark, if any, and drops its marked-list entry.
func (b *SendBuffer) unmark(ord uint64, seg *Segment) {
	if !seg.LossMarked {
		return
	}
	seg.LossMarked = false
	i, _ := slices.BinarySearch(b.marked, ord)
	b.marked = slices.Delete(b.marked, i, i+1)
}

// HasMarked reports whether any segment is flagged lost.
func (b *SendBuffer) HasMarked() bool { return len(b.marked) > 0 }

// ForEachEligibleRetransmit visits every loss-marked segment whose
// once-per-RTT cooldown has expired, in stream order, in one pass. The
// callback may retransmit the segment (clearing its mark); returning false
// stops the walk.
func (b *SendBuffer) ForEachEligibleRetransmit(now, rtt sim.Time, fn func(*Segment) bool) {
	for i := 0; i < len(b.marked); {
		ord := b.marked[i]
		seg := b.segs.at(ord)
		if seg.mayRetransmit(now, rtt) && !fn(seg) {
			return
		}
		// A retransmission removed entry i; the next one slid into its place.
		if i < len(b.marked) && b.marked[i] == ord {
			i++
		}
	}
}

// Oldest returns the unacked segment with the lowest byte offset, or nil.
func (b *SendBuffer) Oldest() *Segment {
	if b.live == 0 {
		return nil
	}
	return b.segs.at(b.segs.lo)
}

// Newest returns the unacked segment with the highest byte offset (the
// tail a TLP probe retransmits), or nil when nothing is outstanding.
func (b *SendBuffer) Newest() *Segment {
	for ord := b.segs.hi; ord > b.segs.lo; ord-- {
		if seg := b.segs.at(ord - 1); !seg.released {
			return seg
		}
	}
	return nil
}

// Walk calls fn on every unacked segment in stream order; fn returning
// false stops the walk.
func (b *SendBuffer) Walk(fn func(*Segment) bool) {
	for ord := b.segs.lo; ord < b.segs.hi; ord++ {
		if seg := b.segs.at(ord); !seg.released && !fn(seg) {
			return
		}
	}
}

// Len returns the number of unacknowledged segments.
func (b *SendBuffer) Len() int { return b.live }

// Bytes returns the total unacknowledged payload bytes.
func (b *SendBuffer) Bytes() int { return b.bytes }

// ReleasedBytes returns the cumulative payload bytes acknowledged
// (cumulatively or selectively) since the buffer was created.
func (b *SendBuffer) ReleasedBytes() int64 { return b.releasedBytes }

// OldestPktSeq returns the smallest packet number among the current
// transmissions of unacknowledged segments; when nothing is outstanding it
// returns next (the sender's next packet number). Every number below the
// result is dead: acknowledged or superseded by a retransmission.
func (b *SendBuffer) OldestPktSeq(next uint64) uint64 {
	if b.live == 0 {
		return next
	}
	return min(b.pkts.lo, next)
}

// BeginAck opens one acknowledgment's releases: it snapshots the RACK
// delivery state for reorder detection and records the per-ack context. now
// is the ack's arrival time and rttFloor the path's minimum RTT (0 disables
// the check): together they disambiguate acks of retransmitted segments — a
// release whose implied RTT is below the floor was a delivery of an
// *earlier* transmission, so its retransmit timestamp must not advance the
// RACK clock (RFC 8985 §6.2 step 2).
func (b *SendBuffer) BeginAck(now, rttFloor sim.Time) {
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

// ScanRackLosses walks unacknowledged, unmarked segments in transmission
// order — packet-number order *is* (SentAt, PktSeq) order — visiting only
// those sent before the RACK most-recently-delivered transmission
// (cutoff/cutoffPkt): strictly earlier send times qualify, and timestamp
// ties — a paced burst emits many segments at one instant — break by packet
// number like RFC 8985 breaks them by sequence, so the unacked tail of the
// very burst the delivered segment came from is not mistaken for "older
// than delivered". fn returns true when it marked the segment lost (the
// packet number is consumed: a retransmission gets a fresh one beyond the
// cursor); returning false stops the walk — every later transmission is
// more recent, so its loss deadline is further out. The returned
// sentAt/pending report the first un-marked candidate's transmission time
// so the caller can arm a reorder-window re-check timer.
func (b *SendBuffer) ScanRackLosses(cutoff sim.Time, cutoffPkt uint64, fn func(*Segment) bool) (sentAt sim.Time, pending bool) {
	for b.scan = max(b.scan, b.pkts.lo); b.scan < b.pkts.hi; b.scan++ {
		seg := b.ByPktSeq(b.scan)
		if seg == nil || seg.LossMarked {
			continue
		}
		// The first non-candidate ends the candidate prefix.
		if seg.SentAt > cutoff || (seg.SentAt == cutoff && seg.PktSeq >= cutoffPkt) {
			return 0, false
		}
		if !fn(seg) {
			return seg.SentAt, true
		}
	}
	return 0, false
}
