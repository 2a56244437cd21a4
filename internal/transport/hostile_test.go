package transport

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

// hostileTACK is well framed — it passes Sane, whose bounds are all
// relative to the peer's own LargestPktSeq — and claims 2⁶² packet numbers.
func hostileTACK() *packet.Packet {
	return &packet.Packet{Type: packet.TypeTACK, Ack: &packet.AckInfo{
		LargestPktSeq: 1 << 62, CumPktSeq: 1 << 62, Window: 1 << 20,
		UnackedBlocks: []seqspace.Range{{Lo: 0, Hi: 1 << 62}},
	}}
}

// TestHostileRangeCostsOutstandingNotClaimed: walking a peer-supplied range
// costs at most the packet numbers actually outstanding, however many the
// peer claims. (The endpoint drops this TACK before the engine sees it;
// the engine must still survive it.)
func TestHostileRangeCostsOutstandingNotClaimed(t *testing.T) {
	h := newHarness(t, 1, Config{Mode: ModeTACK, RichTACK: true}, 200e6, ms(50), 0, 0)
	h.snd.Start()
	for h.snd.buf.Len() < 100 && h.loop.Step() {
	}
	if h.snd.buf.Len() < 100 {
		t.Fatalf("only %d segments in flight", h.snd.buf.Len())
	}
	p := hostileTACK()
	if err := p.Sane(); err != nil {
		t.Fatalf("the hostile TACK must be well framed: %v", err)
	}
	if !h.snd.AcksUnsent(p.Ack) {
		t.Error("AcksUnsent does not flag a LargestPktSeq beyond every packet sent")
	}
	done := make(chan struct{})
	go func() {
		h.snd.OnPacket(p)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("OnPacket still walking the claimed range after 1 s")
	}
	if h.snd.Inflight() < 0 {
		t.Fatalf("Inflight = %d", h.snd.Inflight())
	}
}

// TestAcksUnsentPassesHonestFeedback: the guard must not cost an honest
// receiver anything — including the SYNACK, whose LargestPktSeq of 0 means
// "none yet", not "packet 0".
func TestAcksUnsentPassesHonestFeedback(t *testing.T) {
	acks, flagged := 0, 0
	loop, snd, _ := enginePair(t, Config{Mode: ModeTACK, RichTACK: true, TransferBytes: 1 << 20}, ms(10),
		func(snd *Sender, p *packet.Packet) {
			if p.Ack != nil {
				acks++
				if snd.AcksUnsent(p.Ack) {
					flagged++
				}
			}
		})
	loop.RunUntil(60 * sim.Second)
	if !snd.Done() || acks == 0 {
		t.Fatalf("transfer incomplete (%d acknowledgments)", acks)
	}
	if flagged != 0 {
		t.Fatalf("%d of %d honest acknowledgments flagged as acking the unsent", flagged, acks)
	}
}

// FuzzSenderOnPacket feeds arbitrary datagrams — length-prefixed, decoded
// and Sane-checked as the endpoint does — to two senders with data in
// flight. One stands behind the endpoint's guard (AcksUnsent) and must
// never believe more than it sent; the other takes everything well framed
// and must merely stay standing: no panic, no hang, no invented state.
func FuzzSenderOnPacket(f *testing.F) {
	chunk := func(p *packet.Packet) []byte {
		wire := p.AppendMarshal(nil)
		return append(binary.BigEndian.AppendUint16(nil, uint16(len(wire))), wire...)
	}
	f.Add(chunk(hostileTACK()))
	f.Add(chunk(&packet.Packet{Type: packet.TypeTACK, Ack: &packet.AckInfo{ // everything sent so far acked
		CumAck: 10 * 1400, LargestPktSeq: 9, CumPktSeq: 10, Window: 1 << 20,
		AckedBlocks: []seqspace.Range{{Lo: 0, Hi: 10}}}}))
	f.Add(chunk(&packet.Packet{Type: packet.TypeIACK, IACK: packet.IACKLoss, Ack: &packet.AckInfo{ // loss, empty lists
		LargestPktSeq: 8, CumPktSeq: 2, Window: 1 << 20}}))

	f.Fuzz(func(t *testing.T, data []byte) {
		guarded, raw := inflightSender(t), inflightSender(t)
		var p packet.Packet
		for len(data) >= 2 {
			n := min(int(binary.BigEndian.Uint16(data)), len(data)-2)
			wire := data[2 : 2+n]
			data = data[2+n:]
			if packet.DecodeInto(&p, wire) != nil || p.Sane() != nil {
				continue
			}
			if p.Ack == nil || !guarded.snd.AcksUnsent(p.Ack) {
				guarded.deliver(t, &p)
				if guarded.snd.CumAcked() > guarded.snd.SentSeq() {
					t.Fatalf("CumAcked %d beyond SentSeq %d", guarded.snd.CumAcked(), guarded.snd.SentSeq())
				}
			}
			raw.deliver(t, &p)
		}
	})
}

// fuzzSender is a sender on its own loop whose output goes nowhere.
type fuzzSender struct {
	snd  *Sender
	sent int // DATA packets emitted
}

func inflightSender(t *testing.T) *fuzzSender {
	loop, s := sim.NewLoop(1), &fuzzSender{}
	snd, err := NewSender(loop, Config{Mode: ModeTACK, RichTACK: true}, func(p *packet.Packet) {
		if p.Type == packet.TypeData {
			s.sent++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.snd = snd
	snd.Start()
	loop.RunUntil(ms(20))
	snd.OnPacket(&packet.Packet{Type: packet.TypeSYNACK, Ack: &packet.AckInfo{Window: 1 << 20}})
	loop.RunUntil(ms(25))
	if snd.buf.Len() == 0 {
		t.Fatal("no data in flight")
	}
	return s
}

// deliver hands p to the sender, lets a millisecond of its timers run, and
// checks the state no input may break.
func (s *fuzzSender) deliver(t *testing.T, p *packet.Packet) {
	s.snd.OnPacket(p)
	s.snd.loop.RunUntil(s.snd.loop.Now() + ms(1))
	if s.snd.buf.Len() > s.sent || s.snd.Inflight() < 0 {
		t.Fatalf("after %v: %d segments held of %d sent, Inflight %d",
			p.Type, s.snd.buf.Len(), s.sent, s.snd.Inflight())
	}
}
