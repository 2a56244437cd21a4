package buffer

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

func seg(seq uint64, n int, pkt uint64) Segment {
	return Segment{Seq: seq, Len: n, PktSeq: pkt}
}

func TestSendBufferInsertAck(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 100, 1))
	b.Insert(seg(100, 100, 2))
	b.Insert(seg(200, 100, 3))
	if b.Bytes() != 300 || b.Len() != 3 {
		t.Fatalf("Bytes/Len = %d/%d", b.Bytes(), b.Len())
	}
	if n := b.AckBytes(200); n != 2 {
		t.Fatalf("AckBytes released %d, want 2", n)
	}
	if b.Bytes() != 100 || b.Len() != 1 {
		t.Fatalf("after ack Bytes/Len = %d/%d", b.Bytes(), b.Len())
	}
	if b.Oldest().Seq != 200 {
		t.Fatalf("Oldest = %d, want 200", b.Oldest().Seq)
	}
	// Partial cover does not release.
	if n := b.AckBytes(250); n != 0 {
		t.Fatalf("partial AckBytes released %d, want 0", n)
	}
}

func TestSendBufferDuplicateInsertPanics(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 10, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate insert should panic")
		}
	}()
	b.Insert(seg(0, 10, 2))
}

func TestRetransmissionAmbiguityResolved(t *testing.T) {
	// Paper §5.1 example: retransmission gets a new PKT.SEQ; loss reports
	// for the old number must no longer resolve.
	b := NewSendBuffer()
	b.Insert(seg(1500, 1500, 2))
	s := b.ByPktSeq(2)
	b.Retransmitted(s, 4, 10*sim.Millisecond)
	if b.ByPktSeq(2) != nil {
		t.Fatal("old PktSeq mapping should be dropped after retransmission")
	}
	if got := b.ByPktSeq(4); got != s {
		t.Fatal("new PktSeq mapping missing")
	}
	if s.Retransmits != 1 || s.PktSeq != 4 {
		t.Fatalf("segment state = %+v", s)
	}
}

func TestMarkLossSkipsStaleReports(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 100, 5))
	s := b.ByPktSeq(5)
	b.Retransmitted(s, 9, 0)
	// Report loss of pkt 5 (stale) — nothing should be marked.
	if marked := b.MarkLossByPktRanges([]seqspace.Range{{Lo: 5, Hi: 6}}); len(marked) != 0 {
		t.Fatalf("stale loss report marked %d segments", len(marked))
	}
	// Report loss of pkt 9 (current) — should mark once, idempotently.
	if marked := b.MarkLossByPktRanges([]seqspace.Range{{Lo: 9, Hi: 10}}); len(marked) != 1 {
		t.Fatal("current loss report should mark the segment")
	}
	if marked := b.MarkLossByPktRanges([]seqspace.Range{{Lo: 9, Hi: 10}}); len(marked) != 0 {
		t.Fatal("re-marking should be idempotent")
	}
	if !s.LossMarked || len(b.marked) != 1 {
		t.Fatalf("LossMarked = %v with %d marks, want the one segment marked", s.LossMarked, len(b.marked))
	}
}

func TestMarkLossStreamOrder(t *testing.T) {
	// Retransmissions put packet-number order at odds with stream order:
	// the report walks 6 (seq 300), 7 (seq 0), 8 (seq 100).
	b := NewSendBuffer()
	b.Insert(seg(0, 100, 4))
	b.Insert(seg(100, 100, 5))
	b.Insert(seg(300, 100, 6))
	b.Retransmitted(b.ByPktSeq(4), 7, 0)
	b.Retransmitted(b.ByPktSeq(5), 8, 0)
	marked := b.MarkLossByPktRanges([]seqspace.Range{{Lo: 4, Hi: 9}})
	if len(marked) != 3 || marked[0].Seq != 0 || marked[1].Seq != 100 || marked[2].Seq != 300 {
		t.Fatalf("marked order wrong: %v", marked)
	}
	var visited []uint64
	b.ForEachEligibleRetransmit(sim.Second, 0, func(s *Segment) bool {
		visited = append(visited, s.Seq)
		return true
	})
	if len(visited) != 3 || visited[0] != 0 || visited[1] != 100 || visited[2] != 300 {
		t.Fatalf("retransmit order wrong: %v", visited)
	}
}

func TestInsertOutOfStreamOrderPanics(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(300, 100, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("insert below the stream's end should panic")
		}
	}()
	b.Insert(seg(0, 100, 5))
}

func TestOncePerRTTRetransmitRule(t *testing.T) {
	b := NewSendBuffer()
	b.Insert(seg(0, 100, 1))
	s := b.ByPktSeq(1)
	rtt := 50 * sim.Millisecond
	if !s.mayRetransmit(0, rtt) {
		t.Fatal("never-retransmitted segment must be eligible")
	}
	b.Retransmitted(s, 2, 100*sim.Millisecond)
	if s.mayRetransmit(120*sim.Millisecond, rtt) {
		t.Fatal("must not retransmit twice within an RTT")
	}
	if !s.mayRetransmit(150*sim.Millisecond, rtt) {
		t.Fatal("after an RTT the segment is eligible again")
	}
}

func TestAckPktRanges(t *testing.T) {
	b := NewSendBuffer()
	for i := uint64(0); i < 10; i++ {
		b.Insert(seg(i*100, 100, i))
	}
	n := b.AckPktRanges([]seqspace.Range{{Lo: 0, Hi: 3}, {Lo: 7, Hi: 8}})
	if n != 4 {
		t.Fatalf("released %d, want 4", n)
	}
	if b.Len() != 6 {
		t.Fatalf("Len = %d, want 6", b.Len())
	}
	if b.ByPktSeq(7) != nil || b.ByPktSeq(2) != nil {
		t.Fatal("acked segments still resolvable")
	}
	if b.Oldest().Seq != 300 {
		t.Fatalf("Oldest = %d, want 300", b.Oldest().Seq)
	}
}

func TestWalkStopsEarly(t *testing.T) {
	b := NewSendBuffer()
	for i := uint64(0); i < 5; i++ {
		b.Insert(seg(i*10, 10, i))
	}
	count := 0
	b.Walk(func(*Segment) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("walk visited %d, want 3", count)
	}
}

func TestReceiveBufferInOrder(t *testing.T) {
	rb := NewReceiveBuffer(10000)
	acc, ov := rb.Offer(0, 1000)
	if acc != 1000 || ov {
		t.Fatalf("Offer = %d,%v", acc, ov)
	}
	if rb.Readable() != 1000 || rb.BlockedBytes() != 0 {
		t.Fatalf("Readable/Blocked = %d/%d", rb.Readable(), rb.BlockedBytes())
	}
	if got := rb.Read(400); got != 400 {
		t.Fatalf("Read = %d", got)
	}
	if rb.Delivered() != 400 || rb.Readable() != 600 {
		t.Fatalf("Delivered/Readable = %d/%d", rb.Delivered(), rb.Readable())
	}
}

func TestReceiveBufferHoLB(t *testing.T) {
	rb := NewReceiveBuffer(100000)
	rb.Offer(0, 1500)
	rb.Offer(3000, 1500) // hole at [1500,3000)
	rb.Offer(4500, 1500)
	if rb.NextExpected() != 1500 {
		t.Fatalf("NextExpected = %d, want 1500", rb.NextExpected())
	}
	if rb.BlockedBytes() != 3000 {
		t.Fatalf("BlockedBytes = %d, want 3000", rb.BlockedBytes())
	}
	holes := rb.received.Gaps(rb.NextExpected(), 6000)
	if len(holes) != 1 || holes[0] != (seqspace.Range{Lo: 1500, Hi: 3000}) {
		t.Fatalf("holes = %v", holes)
	}
	// Fill the hole: everything drains to readable.
	rb.Offer(1500, 1500)
	if rb.BlockedBytes() != 0 || rb.Readable() != 6000 {
		t.Fatalf("after fill Blocked/Readable = %d/%d", rb.BlockedBytes(), rb.Readable())
	}
}

func TestReceiveBufferDuplicatesAndOld(t *testing.T) {
	rb := NewReceiveBuffer(10000)
	rb.Offer(0, 1000)
	if acc, _ := rb.Offer(0, 1000); acc != 0 {
		t.Fatalf("duplicate accepted %d bytes", acc)
	}
	if acc, _ := rb.Offer(500, 1000); acc != 500 {
		t.Fatalf("overlap accepted %d bytes, want 500", acc)
	}
	rb.Read(1500)
	if acc, _ := rb.Offer(0, 1500); acc != 0 {
		t.Fatalf("fully consumed range re-accepted %d bytes", acc)
	}
	// Straddling the read point: only the unread part counts.
	if acc, _ := rb.Offer(1000, 1000); acc != 500 {
		t.Fatalf("straddling offer accepted %d, want 500", acc)
	}
}

func TestReceiveBufferWindowAndOverflow(t *testing.T) {
	rb := NewReceiveBuffer(3000)
	if rb.Window() != 3000 {
		t.Fatalf("initial Window = %d", rb.Window())
	}
	rb.Offer(0, 2000)
	if rb.Window() != 1000 {
		t.Fatalf("Window = %d, want 1000", rb.Window())
	}
	if _, ov := rb.Offer(2000, 2000); !ov {
		t.Fatal("overflow not reported")
	}
	rb.Offer(2000, 1000)
	if rb.Window() != 0 {
		t.Fatalf("full Window = %d, want 0", rb.Window())
	}
	rb.Read(3000)
	if rb.Window() != 3000 {
		t.Fatalf("after read Window = %d, want 3000", rb.Window())
	}
}

func TestReceiveBufferFIN(t *testing.T) {
	rb := NewReceiveBuffer(10000)
	rb.Offer(0, 500)
	rb.OnFIN(500)
	if rb.Complete() {
		t.Fatal("not complete until bytes consumed")
	}
	rb.Read(500)
	if !rb.Complete() {
		t.Fatal("should be complete")
	}
	if !rb.finKnown || rb.finSeq != 500 {
		t.Fatalf("finSeq = %d,%v", rb.finSeq, rb.finKnown)
	}
}

// Property: receive buffer conservation — accepted bytes == delivered +
// buffered, and BlockedBytes + Readable == buffered.
func TestQuickReceiveConservation(t *testing.T) {
	type offer struct {
		Seq uint16
		Len uint8
	}
	f := func(offers []offer, reads []uint8) bool {
		rb := NewReceiveBuffer(1 << 16)
		var accepted, read int
		for i, o := range offers {
			acc, _ := rb.Offer(uint64(o.Seq), int(o.Len))
			accepted += acc
			if i < len(reads) {
				read += rb.Read(int(reads[i]))
			}
		}
		buffered := rb.Readable() + rb.BlockedBytes()
		return accepted == int(rb.Delivered())+buffered && read == int(rb.Delivered())
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: send buffer bytes always equals the sum of live segment lengths,
// across arbitrary ack/retransmit interleavings.
func TestQuickSendBufferAccounting(t *testing.T) {
	type action struct {
		Kind uint8 // 0 insert, 1 ackbytes, 2 retransmit, 3 ackpkt
		Arg  uint16
	}
	f := func(actions []action) bool {
		b := NewSendBuffer()
		nextSeq, nextPkt := uint64(0), uint64(0)
		for _, a := range actions {
			switch a.Kind % 4 {
			case 0:
				n := int(a.Arg%1400) + 1
				b.Insert(seg(nextSeq, n, nextPkt))
				nextSeq += uint64(n)
				nextPkt++
			case 1:
				b.AckBytes(uint64(a.Arg) * 16)
			case 2:
				if s := b.Oldest(); s != nil {
					b.Retransmitted(s, nextPkt, 0)
					nextPkt++
				}
			case 3:
				lo := uint64(a.Arg) % (nextPkt + 1)
				b.AckPktRanges([]seqspace.Range{{Lo: lo, Hi: lo + 3}})
			}
			sum := 0
			b.Walk(func(s *Segment) bool { sum += s.Len; return true })
			if sum != b.Bytes() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(22))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
