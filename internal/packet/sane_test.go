package packet

import (
	"testing"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

func saneAck() *AckInfo {
	return &AckInfo{
		CumAck: 4096, CumPktSeq: 10, LargestPktSeq: 20, AckSeq: 7,
		Window: 1 << 20, AckDelay: 3 * sim.Millisecond,
		EchoDeparture: 40 * sim.Millisecond, FirstEchoDeparture: 38 * sim.Millisecond,
		DeliveryRate: 12e6, LossRatePermille: 15, ReportedThrough: 18,
		AckedBlocks:   []seqspace.Range{{Lo: 0, Hi: 11}, {Lo: 14, Hi: 21}},
		UnackedBlocks: []seqspace.Range{{Lo: 11, Hi: 14}},
	}
}

func TestSaneAcceptsHonestPackets(t *testing.T) {
	pkts := []Packet{
		{Type: TypeSYN, ConnID: 1, PktSeq: 0, Payload: []byte("hi")},
		{Type: TypeSYNACK, ConnID: 1, PktSeq: 0, Ack: &AckInfo{Window: 1 << 20}},
		{Type: TypeData, ConnID: 1, PktSeq: 9, Seq: 4096, Payload: make([]byte, 1400), OldestPktSeq: 10},
		{Type: TypeTACK, ConnID: 1, PktSeq: 3, Ack: saneAck()},
		{Type: TypeIACK, ConnID: 1, PktSeq: 4, IACK: IACKLoss, Ack: saneAck()},
		{Type: TypeIACK, ConnID: 1, PktSeq: 5, IACK: IACKRTTSync, RTTMinNS: 1e7},
		{Type: TypeFIN, ConnID: 1, PktSeq: 6, Seq: 1 << 30},
		{Type: TypeFINACK, ConnID: 1, PktSeq: 7, Ack: saneAck()},
		// A legacy ack: SACK byte ranges above the cumulative point, no
		// packet number.
		{Type: TypeTACK, ConnID: 1, PktSeq: 8, Ack: &AckInfo{CumAck: 4096,
			AckedBlocks: []seqspace.Range{{Lo: 8192, Hi: 12288}, {Lo: 16384, Hi: 20480}}}},
	}
	for _, p := range pkts {
		if err := p.Sane(); err != nil {
			t.Errorf("%v: honest packet rejected: %v", p.Type, err)
		}
		// And after a wire round trip.
		var dec Packet
		if err := DecodeInto(&dec, p.Marshal()); err != nil {
			t.Fatalf("%v: decode: %v", p.Type, err)
		}
		if err := dec.Sane(); err != nil {
			t.Errorf("%v: round-tripped packet rejected: %v", p.Type, err)
		}
	}
}

func TestSaneRejectsCorruptFields(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Packet)
	}{
		{"negative SentAt", func(p *Packet) { p.SentAt = -1 }},
		{"byte range wrap", func(p *Packet) { p.Type = TypeData; p.Ack = nil; p.Seq = ^uint64(0) - 10; p.Payload = make([]byte, 100) }},
		{"oldest beyond pktseq", func(p *Packet) { p.Type = TypeData; p.Ack = nil; p.PktSeq = 5; p.OldestPktSeq = 1000 }},
		{"bogus IACK kind", func(p *Packet) { p.IACK = 99 }},
		{"cum beyond largest", func(p *Packet) { p.Ack.CumPktSeq = p.Ack.LargestPktSeq + 2 }},
		{"reported beyond largest", func(p *Packet) { p.Ack.ReportedThrough = p.Ack.LargestPktSeq + 2 }},
		{"negative ack delay", func(p *Packet) { p.Ack.AckDelay = -sim.Millisecond }},
		{"loss rate over 1000", func(p *Packet) { p.Ack.LossRatePermille = 1001 }},
		{"inverted block", func(p *Packet) { p.Ack.AckedBlocks[0] = seqspace.Range{Lo: 9, Hi: 3} }},
		{"out-of-order blocks", func(p *Packet) { p.Ack.AckedBlocks[0], p.Ack.AckedBlocks[1] = p.Ack.AckedBlocks[1], p.Ack.AckedBlocks[0] }},
		{"block beyond largest", func(p *Packet) { p.Ack.UnackedBlocks[0].Hi = p.Ack.LargestPktSeq + 5 }},
	}
	for _, tc := range cases {
		p := Packet{Type: TypeTACK, ConnID: 1, PktSeq: 3, Ack: saneAck()}
		tc.mut(&p)
		if err := p.Sane(); err == nil {
			t.Errorf("%s: corrupt packet accepted", tc.name)
		}
	}
}
