package packet_test

import (
	"errors"
	"testing"

	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/transport"
)

// fullFrame cuts the first frame of a stream with more data than one
// datagram holds, as the transport sender asks for it.
func fullFrame(t *testing.T, opts stream.Options) stream.Frame {
	t.Helper()
	m := stream.NewSendMux(stream.Default(), stream.SendDeps{})
	m.OnWindowAdverts(0, []packet.StreamWindow{{ID: packet.InitialWindowID, Limit: 1 << 20}})
	s, err := m.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	fr, ok := m.NextFrame(0, transport.DefaultPayload)
	if !ok {
		t.Fatal("no frame")
	}
	return fr
}

// streamData is the DATA packet the sender builds around a frame.
func streamData(fr stream.Frame) *packet.Packet {
	return &packet.Packet{Type: packet.TypeData, ConnID: 1, PktSeq: 1 << 40, Seq: 1 << 40,
		OldestPktSeq: 1 << 39, Retrans: true, HasStream: true, StreamID: fr.ID,
		StreamOff: fr.Off, StreamFIN: fr.FIN, Payload: fr.Data}
}

// ackAtBudget is an acknowledgment at the full block budget beside the
// given adverts, split between the lists as the receiver splits it.
func ackAtBudget(typ packet.Type, kind packet.IACKKind, windows []packet.StreamWindow) *packet.Packet {
	half := packet.MaxBlocks(len(windows)) / 2
	a := &packet.AckInfo{StreamWindows: windows}
	for i := 0; i < half; i++ {
		lo := uint64(4 * i)
		a.AckedBlocks = append(a.AckedBlocks, seqspace.Range{Lo: lo, Hi: lo + 1})
		a.UnackedBlocks = append(a.UnackedBlocks, seqspace.Range{Lo: lo + 2, Hi: lo + 3})
	}
	return &packet.Packet{Type: typ, ConnID: 1, IACK: kind, Ack: a}
}

// TestEveryShapeFitsTheMTU builds the largest packet of every shape the
// endpoint sends, each sized by the code that sizes it on the wire, and
// requires each datagram, trailer included, to fit one 1500-byte IP
// packet. A full bulk DATA datagram fills it exactly.
func TestEveryShapeFitsTheMTU(t *testing.T) {
	fecData := streamData(fullFrame(t, stream.Options{FEC: true}))
	fecData.HasFEC, fecData.FECGroup = true, 1<<31

	// The repair symbols of a full group of full protected frames.
	var enc fec.Encoder
	enc.Begin(fecData.FECGroup, fec.SchemeRS, fec.GroupLen, 2)
	for !enc.Full() {
		fecData.FECIndex = uint8(enc.Add(fecData))
	}
	var repair *packet.Packet
	enc.Seal(0, 1, func(p *packet.Packet) { repair = p })

	adverts := make([]packet.StreamWindow, 9) // eight streams and the initial grant
	for i := range adverts {
		adverts[i] = packet.StreamWindow{ID: uint32(i), Limit: 1 << 40}
	}
	adverts[8].ID = packet.InitialWindowID

	bulk := &packet.Packet{Type: packet.TypeData, ConnID: 1, PktSeq: 1 << 40, Seq: 1 << 40,
		Payload: make([]byte, transport.DefaultPayload), FIN: true, Retrans: true}
	shapes := []struct {
		name string
		p    *packet.Packet
	}{
		{"bulk DATA", bulk},
		{"stream DATA", streamData(fullFrame(t, stream.Options{}))},
		{"FEC-tagged stream DATA", fecData},
		{"REPAIR", repair},
		{"TACK", ackAtBudget(packet.TypeTACK, 0, nil)},
		{"TACK with stream adverts", ackAtBudget(packet.TypeTACK, 0, adverts)},
		{"loss IACK", ackAtBudget(packet.TypeIACK, packet.IACKLoss, nil)},
		{"loss IACK with stream adverts", ackAtBudget(packet.TypeIACK, packet.IACKLoss, adverts)},
		{"SYNACK", &packet.Packet{Type: packet.TypeSYNACK, IACK: packet.IACKHandshake,
			Ack: &packet.AckInfo{StreamWindows: adverts[8:]}}},
		{"SYN", &packet.Packet{Type: packet.TypeSYN}},
		{"FIN", &packet.Packet{Type: packet.TypeFIN}},
		{"FINACK", &packet.Packet{Type: packet.TypeFINACK, Ack: &packet.AckInfo{}}},
		{"PATH_CHALLENGE", &packet.Packet{Type: packet.TypePathChallenge}},
	}
	for _, sh := range shapes {
		n := len(sh.p.AppendDatagram(nil))
		t.Logf("%s: %d-byte datagram", sh.name, n)
		if n > packet.MaxDatagram {
			t.Errorf("%s: %d-byte datagram, a %d-byte IP packet over the 1500-byte MTU", sh.name, n, n+28)
		}
	}
	if n := len(bulk.AppendDatagram(nil)); n != packet.MaxDatagram {
		t.Errorf("full bulk DATA: %d-byte datagram, want exactly %d (a 1500-byte IP packet)", n, packet.MaxDatagram)
	}
}

// TestDatagramTrailer checks that the trailer round-trips, that a flipped
// bit is a checksum error and that a datagram too short for a trailer is
// a decode error, not a checksum one.
func TestDatagramTrailer(t *testing.T) {
	sent := &packet.Packet{Type: packet.TypeData, ConnID: 7, Seq: 99, Payload: []byte("payload")}
	b := sent.AppendDatagram([]byte("prefix"))[len("prefix"):]
	if len(b) != sent.DatagramLen() {
		t.Fatalf("datagram is %d bytes, DatagramLen says %d", len(b), sent.DatagramLen())
	}
	var got packet.Packet
	if err := packet.DecodeDatagram(&got, b); err != nil || got.Seq != 99 || string(got.Payload) != "payload" {
		t.Fatalf("round trip: %v, %+v", err, got)
	}
	b[3] ^= 0x10
	if err := packet.DecodeDatagram(&got, b); !errors.Is(err, packet.ErrChecksum) {
		t.Fatalf("flipped bit: err = %v, want ErrChecksum", err)
	}
	if err := packet.DecodeDatagram(&got, []byte{1, 2, 3}); err == nil || errors.Is(err, packet.ErrChecksum) {
		t.Fatalf("3-byte datagram: err = %v, want a decode error", err)
	}
}
