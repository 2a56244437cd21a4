package buffer

import (
	"testing"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

func sentSeg(seq uint64, n int, pkt uint64, at sim.Time) Segment {
	s := seg(seq, n, pkt)
	s.SentAt = at
	return s
}

func TestScanRackLossesEqualTimestampTiebreak(t *testing.T) {
	// A paced burst emits several segments at one instant. When one of
	// them is delivered, its same-timestamp siblings with *higher* packet
	// numbers were sent after it and must not be loss candidates — only
	// strictly-earlier (sentAt, PktSeq) entries are.
	b := NewSendBuffer()
	at := 10 * sim.Millisecond
	for pkt := uint64(1); pkt <= 4; pkt++ {
		b.Insert(sentSeg((pkt-1)*100, 100, pkt, at))
	}
	b.BeginAck(30*sim.Millisecond, 0)
	b.AckPktRanges([]seqspace.Range{{Lo: 2, Hi: 3}}) // deliver pkt 2 only

	cutoff, cutoffPkt, ok := b.RackState()
	if !ok || cutoff != at || cutoffPkt != 2 {
		t.Fatalf("RackState = (%v, %d, %v), want (%v, 2, true)", cutoff, cutoffPkt, ok, at)
	}
	var cand []uint64
	b.ScanRackLosses(cutoff, cutoffPkt, func(s *Segment) bool {
		cand = append(cand, s.PktSeq)
		return true
	})
	if len(cand) != 1 || cand[0] != 1 {
		t.Fatalf("candidates = %v, want [1]: same-instant later packets must be excluded", cand)
	}
}

func TestScanRackLossesStopsAtPendingEntry(t *testing.T) {
	// The callback refusing a segment (deadline not yet reached) halts the
	// scan and reports the entry's send time so the caller can re-arm a
	// timer for it.
	b := NewSendBuffer()
	b.Insert(sentSeg(0, 100, 1, 5*sim.Millisecond))
	b.Insert(sentSeg(100, 100, 2, 6*sim.Millisecond))
	b.Insert(sentSeg(200, 100, 3, 20*sim.Millisecond))
	b.BeginAck(45*sim.Millisecond, 0)
	b.AckPktRanges([]seqspace.Range{{Lo: 3, Hi: 4}})

	marked := 0
	sentAt, pending := b.ScanRackLosses(20*sim.Millisecond, 3, func(s *Segment) bool {
		if s.PktSeq == 2 {
			return false // pretend pkt 2 is inside its reorder window
		}
		b.MarkLoss(s)
		marked++
		return true
	})
	if marked != 1 {
		t.Fatalf("marked %d segments, want 1", marked)
	}
	if !pending || sentAt != 6*sim.Millisecond {
		t.Fatalf("pending = (%v, %v), want (6ms, true)", sentAt, pending)
	}
}

func TestAmbiguousRetransmitAckDoesNotAdvanceRackClock(t *testing.T) {
	// Segment pkt 1 is retransmitted as pkt 3 at t=100ms; an ack releasing
	// it arrives at t=105ms. With a 20ms RTT floor the delivery can only
	// have been the *original* transmission, so the RACK clock must not
	// jump to the retransmit timestamp (which would spuriously age every
	// other in-flight segment).
	b := NewSendBuffer()
	b.Insert(sentSeg(0, 100, 1, 10*sim.Millisecond))
	b.Insert(sentSeg(100, 100, 2, 11*sim.Millisecond))
	b.Retransmitted(b.ByPktSeq(1), 3, 100*sim.Millisecond)

	b.BeginAck(105*sim.Millisecond, 20*sim.Millisecond)
	b.AckPktRanges([]seqspace.Range{{Lo: 3, Hi: 4}})
	if _, _, ok := b.RackState(); ok {
		t.Fatal("ambiguous retransmit ack advanced the RACK clock")
	}

	// The same release pattern with a plausible RTT (ack at 125ms) is a
	// genuine delivery of the retransmission and does advance it.
	b2 := NewSendBuffer()
	b2.Insert(sentSeg(0, 100, 1, 10*sim.Millisecond))
	b2.Retransmitted(b2.ByPktSeq(1), 3, 100*sim.Millisecond)
	b2.BeginAck(125*sim.Millisecond, 20*sim.Millisecond)
	b2.AckPktRanges([]seqspace.Range{{Lo: 3, Hi: 4}})
	if xmit, pkt, ok := b2.RackState(); !ok || xmit != 100*sim.Millisecond || pkt != 3 {
		t.Fatalf("RackState = (%v, %d, %v), want (100ms, 3, true)", xmit, pkt, ok)
	}
}

func TestNewestReturnsHighestUnreleased(t *testing.T) {
	b := NewSendBuffer()
	if b.Newest() != nil {
		t.Fatal("empty buffer should have no newest segment")
	}
	b.Insert(sentSeg(0, 100, 1, 1*sim.Millisecond))
	b.Insert(sentSeg(100, 100, 2, 2*sim.Millisecond))
	b.Insert(sentSeg(200, 100, 3, 3*sim.Millisecond))
	b.BeginAck(10*sim.Millisecond, 0)
	b.AckPktRanges([]seqspace.Range{{Lo: 3, Hi: 4}}) // tail released selectively
	got := b.Newest()
	if got == nil || got.Seq != 100 {
		t.Fatalf("Newest = %+v, want seq 100", got)
	}
}
