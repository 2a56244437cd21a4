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
	s1 := b.Oldest()
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
