package buffer

import (
	"testing"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

func TestOldestPktSeq(t *testing.T) {
	b := NewSendBuffer()
	if got := b.OldestPktSeq(7); got != 7 {
		t.Fatalf("empty buffer oldest = %d, want next (7)", got)
	}
	b.Insert(seg(0, 10, 3))
	b.Insert(seg(10, 10, 4))
	b.Insert(seg(20, 10, 5))
	if got := b.OldestPktSeq(6); got != 3 {
		t.Fatalf("oldest = %d, want 3", got)
	}
	// Retransmit the oldest: its number is superseded.
	b.Retransmitted(b.ByPktSeq(3), 6, 0)
	if got := b.OldestPktSeq(7); got != 4 {
		t.Fatalf("oldest after retx = %d, want 4", got)
	}
	// Release the two originals: the retransmitted segment (now pkt 6)
	// remains until its bytes are acked.
	b.AckPktRanges([]seqspace.Range{{Lo: 4, Hi: 6}})
	if got := b.OldestPktSeq(7); got != 6 {
		t.Fatalf("oldest = %d, want retransmitted pkt 6", got)
	}
	// Cumulative byte ack covers the retransmitted bytes: drained.
	b.AckBytes(30)
	if got := b.OldestPktSeq(7); got != 7 {
		t.Fatalf("drained oldest = %d, want 7", got)
	}
}

func TestReleasePktBelow(t *testing.T) {
	b := NewSendBuffer()
	for i := uint64(0); i < 6; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	if n := b.ReleasePktBelow(3); n != 3 {
		t.Fatalf("released %d, want 3", n)
	}
	if b.Len() != 3 || b.ByPktSeq(2) != nil || b.ByPktSeq(3) == nil {
		t.Fatalf("wrong segments released: len=%d", b.Len())
	}
	// Idempotent / monotone.
	if n := b.ReleasePktBelow(3); n != 0 {
		t.Fatalf("re-release freed %d", n)
	}
	if n := b.ReleasePktBelow(100); n != 3 {
		t.Fatalf("final release freed %d, want 3", n)
	}
	if b.ReleasedBytes() != 60 {
		t.Fatalf("ReleasedBytes = %d, want 60", b.ReleasedBytes())
	}
}

func TestReleaseClearsLossMark(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 10, 1))
	b.MarkLoss(b.ByPktSeq(1))
	if !b.HasMarked() {
		t.Fatal("mark missing")
	}
	b.AckBytes(10)
	if b.HasMarked() {
		t.Fatal("released segment still counted as marked")
	}
}

func TestMarkLossIgnoresReleased(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 10, 1))
	s := b.ByPktSeq(1)
	b.AckBytes(10)
	b.MarkLoss(s)
	if b.HasMarked() {
		t.Fatal("released segment must not be markable")
	}
}

func TestForEachEligibleRetransmit(t *testing.T) {
	b := NewSendBuffer()
	rtt := 100 * sim.Millisecond
	for i := uint64(0); i < 4; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	b.MarkLossByPktRanges([]seqspace.Range{{Lo: 0, Hi: 4}})
	var visited []uint64
	b.ForEachEligibleRetransmit(0, rtt, func(s *Segment) bool {
		visited = append(visited, s.Seq)
		return len(visited) < 3 // stop early
	})
	if len(visited) != 3 || visited[0] != 0 || visited[1] != 10 || visited[2] != 20 {
		t.Fatalf("visited %v, want first three in stream order", visited)
	}
	// Retransmit one mid-walk style: cooldown applies afterwards.
	s1 := b.bySeq[0]
	b.MarkLoss(s1) // still marked? Retransmitted clears; re-mark first
	b.Retransmitted(s1, 10, 50*sim.Millisecond)
	b.MarkLoss(s1)
	count := 0
	b.ForEachEligibleRetransmit(60*sim.Millisecond, rtt, func(s *Segment) bool {
		if s == s1 {
			t.Fatal("cooldown violated")
		}
		count++
		return true
	})
	if count == 0 {
		t.Fatal("other marked segments should still be eligible")
	}
}

func TestNextRetransmitTimeEdges(t *testing.T) {
	b := NewSendBuffer()
	rtt := 100 * sim.Millisecond
	if _, ok := b.NextRetransmitTime(rtt); ok {
		t.Fatal("empty buffer should have no retransmit time")
	}
	b.Insert(seg(0, 10, 1))
	b.MarkLoss(b.ByPktSeq(1))
	at, ok := b.NextRetransmitTime(rtt)
	if !ok || at != 0 {
		t.Fatalf("never-retransmitted mark should be eligible now: %v,%v", at, ok)
	}
	b.Retransmitted(b.ByPktSeq(1), 2, 30*sim.Millisecond)
	b.MarkLoss(b.ByPktSeq(2))
	at, ok = b.NextRetransmitTime(rtt)
	if !ok || at != 130*sim.Millisecond {
		t.Fatalf("cooldown end = %v,%v want 130ms", at, ok)
	}
}

func TestRateSample(t *testing.T) {
	b := NewSendBuffer()
	s1 := seg(0, 1000, 1)
	s1.SentAt = 10 * sim.Millisecond
	b.Insert(s1)
	s2 := seg(1000, 1000, 2)
	s2.SentAt = 20 * sim.Millisecond
	b.Insert(s2)

	b.BeginRateSample(0, 0)
	if _, ok := b.RateSample(30 * sim.Millisecond); ok {
		t.Fatal("no releases: no sample")
	}
	b.AckBytes(2000)
	bps, ok := b.RateSample(30 * sim.Millisecond)
	if !ok {
		t.Fatal("expected a sample")
	}
	// Anchor is s2 (latest SentAt=20ms, deliveredAtSend=0): 2000 B over
	// 10 ms = 1.6 Mbit/s.
	if bps < 1.59e6 || bps > 1.61e6 {
		t.Fatalf("rate = %v, want ~1.6e6", bps)
	}
	// Degenerate interval rejected.
	b.BeginRateSample(0, 0)
	s3 := seg(2000, 1000, 3)
	s3.SentAt = 40 * sim.Millisecond
	b.Insert(s3)
	b.AckBytes(3000)
	if _, ok := b.RateSample(40 * sim.Millisecond); ok {
		t.Fatal("zero-elapsed sample must be rejected")
	}
}

func TestMaybeCompactOrder(t *testing.T) {
	b := NewSendBuffer()
	for i := uint64(0); i < 3000; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	b.AckBytes(3000 * 10)
	if b.Len() != 0 {
		t.Fatalf("Len = %d after full ack", b.Len())
	}
	// Order slice must have been compacted (head reset).
	if len(b.order) != 0 && b.head != 0 {
		t.Fatalf("order not compacted: len=%d head=%d", len(b.order), b.head)
	}
	// Buffer remains usable.
	b.Insert(seg(1<<20, 10, 9999))
	if b.Oldest() == nil {
		t.Fatal("buffer unusable after compaction")
	}
}
