package packet

import (
	"bytes"
	"testing"

	"github.com/tacktp/tack/internal/seqspace"
)

// Marshal encodes the packet to a freshly allocated wire-byte slice: the
// allocating counterpart of AppendMarshal the differential fuzzer and the
// round-trip tests compare against.
func (p *Packet) Marshal() []byte {
	return p.AppendMarshal(make([]byte, 0, p.EncodedLen()))
}

// Unmarshal decodes a packet from wire bytes into a fresh Packet.
func Unmarshal(buf []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodeInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// FuzzUnmarshal exercises the wire decoder with arbitrary bytes: it must
// never panic, and any packet it accepts must re-encode to a decodable
// form (decode→encode→decode fixpoint).
func FuzzUnmarshal(f *testing.F) {
	// Seed with valid encodings of every packet type.
	seeds := []*Packet{
		{Type: TypeSYN, ConnID: 1, SentAt: 5},
		{Type: TypeSYNACK, ConnID: 1, IACK: IACKHandshake, Ack: &AckInfo{Window: 1 << 20}},
		{Type: TypeData, ConnID: 2, PktSeq: 9, Seq: 1500, Payload: bytes.Repeat([]byte{7}, 64), FIN: true},
		{Type: TypeData, ConnID: 2, PktSeq: 10, Seq: 1564, Payload: bytes.Repeat([]byte{8}, 32),
			HasStream: true, StreamID: 3, StreamOff: 4096, StreamFIN: true},
		{Type: TypeTACK, ConnID: 3, Ack: &AckInfo{
			CumAck:        1024,
			StreamWindows: []StreamWindow{{ID: 1, Limit: 1 << 16}, {ID: InitialWindowID, Limit: 1 << 15}},
		}},
		{Type: TypeTACK, ConnID: 3, Ack: &AckInfo{
			CumAck:        4096,
			AckedBlocks:   []seqspace.Range{{Lo: 1, Hi: 5}},
			UnackedBlocks: []seqspace.Range{{Lo: 5, Hi: 7}},
		}},
		{Type: TypeIACK, ConnID: 3, IACK: IACKLoss, Ack: &AckInfo{UnackedBlocks: []seqspace.Range{{Lo: 2, Hi: 3}}}},
		{Type: TypeFIN, ConnID: 4, Seq: 1 << 30},
		{Type: TypeFINACK, ConnID: 4, Ack: &AckInfo{CumAck: 1 << 30}},
		{Type: TypePathChallenge, ConnID: 5, SentAt: 7, Token: 0x1122334455667788},
		{Type: TypePathResponse, ConnID: 5, SentAt: 8, Token: 0x1122334455667788},
		{Type: TypeData, ConnID: 6, PktSeq: 11, Seq: 2048, Payload: bytes.Repeat([]byte{4}, 48),
			HasStream: true, StreamID: 2, StreamOff: 512, HasFEC: true, FECGroup: 9, FECIndex: 2},
		{Type: TypeRepair, ConnID: 6, SentAt: 9, Payload: bytes.Repeat([]byte{0xAB}, 96),
			FECGroup: 9, FECGroupLen: 4, FECRepairCount: 1, FECIndex: 0, FECScheme: 1},
	}
	for _, p := range seeds {
		f.Add(p.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{Version})

	f.Fuzz(func(t *testing.T, raw []byte) {
		p, err := Unmarshal(raw)
		if err != nil {
			return
		}
		re := p.Marshal()
		q, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encode of accepted packet failed: %v (%+v)", err, p)
		}
		if q.Type != p.Type || q.PktSeq != p.PktSeq || q.Seq != p.Seq {
			t.Fatalf("decode/encode fixpoint violated:\n p=%+v\n q=%+v", p, q)
		}
	})
}

// FuzzCodecDifferential fuzzes the zero-allocation codec against the
// legacy entry points: DecodeInto (on a dirty, reused packet) must accept
// and reject exactly the same inputs as Unmarshal with semantically equal
// results, and AppendMarshal must re-encode byte-identically to Marshal.
// Truncated and garbage inputs must error on both paths without panics.
func FuzzCodecDifferential(f *testing.F) {
	for _, p := range codecCases() {
		wire := p.Marshal()
		f.Add(wire)
		// Seed truncations so the corpus explores short-input handling.
		f.Add(wire[:len(wire)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{Version})

	// The reused target deliberately persists across fuzz invocations:
	// every decode must stand alone no matter what state the previous
	// (possibly failed) decode left behind.
	var reused Packet
	f.Fuzz(func(t *testing.T, raw []byte) {
		legacy, legacyErr := Unmarshal(raw)
		intoErr := DecodeInto(&reused, raw)
		if (legacyErr == nil) != (intoErr == nil) {
			t.Fatalf("accept/reject divergence: Unmarshal err=%v DecodeInto err=%v", legacyErr, intoErr)
		}
		if legacyErr != nil {
			return
		}
		if !packetsEqual(legacy, &reused) {
			t.Fatalf("decode divergence:\n legacy=%+v\n reused=%+v", legacy, &reused)
		}
		if !bytes.Equal(legacy.Marshal(), reused.AppendMarshal(nil)) {
			t.Fatalf("encode divergence for %+v", legacy)
		}
	})
}

// FuzzStreamFrame fuzzes the STREAM-frame corner of the codec with
// structured inputs: arbitrary stream ID / offset / flag / payload
// combinations must round-trip exactly (including the zero-length FIN
// frame and the FEC source-symbol tag), EncodedLen must predict the
// marshalled size, and Sane must accept every honestly-constructed frame.
func FuzzStreamFrame(f *testing.F) {
	f.Add(uint32(0), uint64(0), []byte{}, true, false, false, uint32(0), uint8(0))
	f.Add(uint32(7), uint64(1<<21), bytes.Repeat([]byte{9}, 1400), false, false, true, uint32(12), uint8(5))
	f.Add(InitialWindowID, uint64(1)<<62, []byte{1}, true, true, false, uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, sid uint32, off uint64, payload []byte, fin bool, retrans bool,
		hasFEC bool, group uint32, fecIdx uint8) {
		if off+uint64(len(payload)) < off {
			return // wrapping ranges are an encoder-contract violation
		}
		p := &Packet{
			Type: TypeData, ConnID: 1, PktSeq: 42, Seq: 9000,
			Payload: payload, HasStream: true, StreamID: sid, StreamOff: off,
			StreamFIN: fin, Retrans: retrans,
			HasFEC: hasFEC, FECGroup: group, FECIndex: fecIdx,
		}
		if !hasFEC {
			p.FECGroup, p.FECIndex = 0, 0 // not on the wire without the flag
		}
		wire := p.Marshal()
		if len(wire) != p.EncodedLen() {
			t.Fatalf("EncodedLen %d != marshalled %d", p.EncodedLen(), len(wire))
		}
		q, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("decode of honest stream frame failed: %v", err)
		}
		if !q.HasStream || q.StreamID != sid || q.StreamOff != off || q.StreamFIN != fin {
			t.Fatalf("stream fields diverged: %+v vs %+v", p, q)
		}
		if q.HasFEC != hasFEC || q.FECGroup != p.FECGroup || q.FECIndex != p.FECIndex {
			t.Fatalf("fec fields diverged: %+v vs %+v", p, q)
		}
		if !bytes.Equal(q.Payload, payload) {
			t.Fatalf("payload diverged (%d vs %d bytes)", len(q.Payload), len(payload))
		}
		if err := q.Sane(); err != nil {
			t.Fatalf("Sane rejected honest stream frame: %v", err)
		}
	})
}
