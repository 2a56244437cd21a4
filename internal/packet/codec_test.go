package packet

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/tacktp/tack/internal/seqspace"
)

// codecCases enumerates one representative packet per wire shape: every
// type, with and without optional structure (payload, feedback block,
// block lists, flags).
func codecCases() map[string]*Packet {
	return map[string]*Packet{
		"syn":      {Type: TypeSYN, ConnID: 1, PktSeq: 0, SentAt: 5},
		"syn+data": {Type: TypeSYN, ConnID: 1, Seq: 0, Payload: bytes.Repeat([]byte{3}, 100)},
		"synack":   {Type: TypeSYNACK, ConnID: 1, IACK: IACKHandshake, Ack: &AckInfo{Window: 1 << 20, EchoDeparture: 9}},
		"data":     {Type: TypeData, ConnID: 2, PktSeq: 9, Seq: 1500, Payload: bytes.Repeat([]byte{7}, 1439), OldestPktSeq: 4},
		"data+fin": {Type: TypeData, ConnID: 2, PktSeq: 10, Seq: 2939, Payload: []byte{1}, FIN: true, Retrans: true, IsProbe: true},
		"data+nil": {Type: TypeData, ConnID: 2, PktSeq: 11, Seq: 2940},
		"stream-data": {Type: TypeData, ConnID: 2, PktSeq: 12, Seq: 4096, Payload: bytes.Repeat([]byte{9}, 1400),
			HasStream: true, StreamID: 7, StreamOff: 1 << 21, OldestPktSeq: 5},
		"stream-fin": {Type: TypeData, ConnID: 2, PktSeq: 13, Seq: 5496,
			HasStream: true, StreamID: 8, StreamOff: 0, StreamFIN: true},
		"stream-retrans": {Type: TypeData, ConnID: 2, PktSeq: 14, Seq: 4096, Payload: []byte{1, 2, 3},
			HasStream: true, StreamID: 7, StreamOff: 1 << 21, StreamFIN: true, Retrans: true},
		"stream-fec": {Type: TypeData, ConnID: 2, PktSeq: 15, Seq: 5496, Payload: bytes.Repeat([]byte{5}, 1200),
			HasStream: true, StreamID: 7, StreamOff: 1 << 22, OldestPktSeq: 6,
			HasFEC: true, FECGroup: 41, FECIndex: 3},
		"repair": {Type: TypeRepair, ConnID: 2, PktSeq: 0, SentAt: 17, Payload: bytes.Repeat([]byte{6}, 1431),
			FECGroup: 41, FECGroupLen: 8, FECRepairCount: 2, FECIndex: 1, FECScheme: 2},
		"tack-bare": {Type: TypeTACK, ConnID: 3, PktSeq: 12},
		"tack": {Type: TypeTACK, ConnID: 3, PktSeq: 13, Ack: &AckInfo{
			CumAck: 4096, CumPktSeq: 7, LargestPktSeq: 40, AckSeq: 2, Window: 1 << 20,
			AckDelay: 11, EchoDeparture: 22, FirstEchoDeparture: 33,
			DeliveryRate: 1e9, LossRatePermille: 12, ReportedThrough: 38,
			AckedBlocks:   []seqspace.Range{{Lo: 1, Hi: 5}, {Lo: 9, Hi: 12}},
			UnackedBlocks: []seqspace.Range{{Lo: 5, Hi: 9}},
		}},
		"iack-loss": {Type: TypeIACK, ConnID: 3, IACK: IACKLoss, AckOldestPktSeq: 6,
			Ack: &AckInfo{UnackedBlocks: []seqspace.Range{{Lo: 2, Hi: 3}}}},
		"iack-rttsync": {Type: TypeIACK, ConnID: 3, IACK: IACKRTTSync, RTTMinNS: 20e6,
			Ack: &AckInfo{LossRatePermille: 5}},
		"tack-windows": {Type: TypeTACK, ConnID: 3, PktSeq: 14, Ack: &AckInfo{
			CumAck: 8192, CumPktSeq: 9, LargestPktSeq: 44, AckSeq: 3, Window: 1 << 20,
			AckedBlocks: []seqspace.Range{{Lo: 2, Hi: 6}},
			StreamWindows: []StreamWindow{
				{ID: 0, Limit: 1 << 18}, {ID: 3, Limit: 1 << 19}, {ID: InitialWindowID, Limit: 1 << 16},
			},
		}},
		"iack-window": {Type: TypeIACK, ConnID: 3, IACK: IACKWindow,
			Ack: &AckInfo{Window: 0, StreamWindows: []StreamWindow{{ID: 5, Limit: 1 << 20}}}},
		"fin":            {Type: TypeFIN, ConnID: 4, Seq: 1 << 30},
		"finack":         {Type: TypeFINACK, ConnID: 4, Ack: &AckInfo{CumAck: 1 << 30}},
		"path-challenge": {Type: TypePathChallenge, ConnID: 5, SentAt: 7, Token: 0xdeadbeefcafef00d},
		"path-response":  {Type: TypePathResponse, ConnID: 5, SentAt: 8, Token: 0xdeadbeefcafef00d},
	}
}

// TestMarshalLenMatchesEncodedLen guards the exact-size invariant
// AppendMarshal relies on: EncodedLen must predict the marshalled length
// for every packet shape, so pre-sized buffers never regrow.
func TestMarshalLenMatchesEncodedLen(t *testing.T) {
	for name, p := range codecCases() {
		if got, want := len(p.Marshal()), p.EncodedLen(); got != want {
			t.Errorf("%s: len(Marshal()) = %d, EncodedLen() = %d", name, got, want)
		}
	}
}

// TestAppendMarshalMatchesMarshal asserts byte-identical encodes and that
// AppendMarshal appends (preserving buffer prefixes) rather than
// overwriting.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	for name, p := range codecCases() {
		legacy := p.Marshal()
		appended := p.AppendMarshal([]byte("prefix"))
		if !bytes.HasPrefix(appended, []byte("prefix")) {
			t.Fatalf("%s: AppendMarshal clobbered the prefix", name)
		}
		if !bytes.Equal(appended[len("prefix"):], legacy) {
			t.Errorf("%s: AppendMarshal and Marshal disagree", name)
		}
	}
}

// TestDecodeIntoMatchesUnmarshal decodes every case both ways and demands
// semantically equal packets.
func TestDecodeIntoMatchesUnmarshal(t *testing.T) {
	for name, p := range codecCases() {
		wire := p.Marshal()
		legacy, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", name, err)
		}
		var into Packet
		if err := DecodeInto(&into, wire); err != nil {
			t.Fatalf("%s: DecodeInto: %v", name, err)
		}
		if !packetsEqual(legacy, &into) {
			t.Errorf("%s: DecodeInto diverges:\n legacy=%+v\n into=%+v", name, legacy, &into)
		}
	}
}

// TestDecodeIntoReuse cycles one Packet through every wire shape twice and
// checks each decode stands alone — stale payload, ack state, and flags
// from the previous decode must never leak into the next.
func TestDecodeIntoReuse(t *testing.T) {
	var reused Packet
	for round := 0; round < 2; round++ {
		for name, p := range codecCases() {
			wire := p.Marshal()
			if err := DecodeInto(&reused, wire); err != nil {
				t.Fatalf("%s: DecodeInto: %v", name, err)
			}
			want, err := Unmarshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			if !packetsEqual(want, &reused) {
				t.Errorf("round %d %s: reused decode diverges:\n want=%+v\n got=%+v",
					round, name, want, &reused)
			}
			if !bytes.Equal(reused.Marshal(), wire) {
				t.Errorf("round %d %s: re-encode of reused decode not byte-identical", round, name)
			}
		}
	}
}

// TestDecodeIntoTruncated feeds every truncation of a rich TACK to
// DecodeInto on a reused packet: each must error without panicking, and a
// subsequent full decode must still succeed.
func TestDecodeIntoTruncated(t *testing.T) {
	full := codecCases()["tack"].Marshal()
	var p Packet
	for cut := 0; cut < len(full); cut++ {
		if err := DecodeInto(&p, full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if err := DecodeInto(&p, full); err != nil {
		t.Fatalf("full decode after truncated attempts: %v", err)
	}
}

// packetsEqual compares decoded packets semantically: nil and empty
// payloads/block lists are equivalent (storage-reusing decodes keep empty
// non-nil slices).
func packetsEqual(a, b *Packet) bool {
	ac, bc := *a, *b
	ac.Payload, bc.Payload = nil, nil
	ac.Ack, bc.Ack = nil, nil
	ac.spareAck, bc.spareAck = nil, nil
	if !reflect.DeepEqual(ac, bc) {
		return false
	}
	if !bytes.Equal(a.Payload, b.Payload) {
		return false
	}
	if (a.Ack == nil) != (b.Ack == nil) {
		return false
	}
	if a.Ack == nil {
		return true
	}
	aa, ba := *a.Ack, *b.Ack
	if !rangesEqual(aa.AckedBlocks, ba.AckedBlocks) || !rangesEqual(aa.UnackedBlocks, ba.UnackedBlocks) {
		return false
	}
	if !windowsEqual(aa.StreamWindows, ba.StreamWindows) {
		return false
	}
	aa.AckedBlocks, ba.AckedBlocks = nil, nil
	aa.UnackedBlocks, ba.UnackedBlocks = nil, nil
	aa.StreamWindows, ba.StreamWindows = nil, nil
	return reflect.DeepEqual(aa, ba)
}

func windowsEqual(a, b []StreamWindow) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rangesEqual(a, b []seqspace.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPathFrameRoundTrip pins the PATH_CHALLENGE/PATH_RESPONSE wire shape:
// the 8-byte validation token must survive a decode exactly (path
// validation compares it verbatim), the frames carry nothing else beyond
// the common header, and Sane accepts them.
func TestPathFrameRoundTrip(t *testing.T) {
	for _, typ := range []Type{TypePathChallenge, TypePathResponse} {
		p := &Packet{Type: typ, ConnID: 9, SentAt: 123, Token: 0xfeedfacecafebeef}
		wire := p.Marshal()
		if len(wire) != commonHeaderLen+8 {
			t.Fatalf("%v: encoded %d bytes, want %d", typ, len(wire), commonHeaderLen+8)
		}
		q, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("%v: decode: %v", typ, err)
		}
		if q.Token != p.Token {
			t.Fatalf("%v: token %#x != %#x", typ, q.Token, p.Token)
		}
		if err := q.Sane(); err != nil {
			t.Fatalf("%v: Sane rejected honest path frame: %v", typ, err)
		}
	}
}

// hotShape is one packet shape of the endpoint's hot path.
type hotShape struct {
	name string
	p    *Packet
}

// hotShapes are the hot-path shapes: a full-size data packet, a rich TACK,
// a full-size stream frame, a TACK carrying stream-window advertisements,
// and a full-size FEC repair symbol.
func hotShapes() []hotShape {
	cases := codecCases()
	var out []hotShape
	for _, name := range []string{"data", "tack", "stream-data", "tack-windows", "repair"} {
		out = append(out, hotShape{name, cases[name]})
	}
	return out
}

// TestCodecZeroAllocs is the hard invariant behind the datapath's
// allocation budget: AppendMarshal and AppendDatagram into a buffer with
// room, and DecodeInto and DecodeDatagram into a warm packet, allocate
// nothing, for every hot shape.
func TestCodecZeroAllocs(t *testing.T) {
	for _, sh := range hotShapes() {
		buf := make([]byte, 0, sh.p.EncodedLen())
		if n := testing.AllocsPerRun(100, func() { buf = sh.p.AppendMarshal(buf[:0]) }); n != 0 {
			t.Errorf("AppendMarshal(%s): %v allocs/op, want 0", sh.name, n)
		}
		dgram := make([]byte, 0, sh.p.DatagramLen())
		if n := testing.AllocsPerRun(100, func() { dgram = sh.p.AppendDatagram(dgram[:0]) }); n != 0 {
			t.Errorf("AppendDatagram(%s): %v allocs/op, want 0", sh.name, n)
		}
		var p Packet
		if err := DecodeInto(&p, buf); err != nil { // warm storage
			t.Fatalf("DecodeInto(%s): %v", sh.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = DecodeInto(&p, buf) }); n != 0 {
			t.Errorf("DecodeInto(%s): %v allocs/op, want 0", sh.name, n)
		}
		if err := DecodeDatagram(&p, dgram); err != nil {
			t.Fatalf("DecodeDatagram(%s): %v", sh.name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = DecodeDatagram(&p, dgram) }); n != 0 {
			t.Errorf("DecodeDatagram(%s): %v allocs/op, want 0", sh.name, n)
		}
	}
}

// BenchmarkMarshal measures AppendMarshal into a reused buffer — the
// endpoint egress path (TestCodecZeroAllocs pins its 0 allocs/op).
func BenchmarkMarshal(b *testing.B) {
	for _, bc := range hotShapes() {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, bc.p.EncodedLen())
			b.SetBytes(int64(bc.p.EncodedLen()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = bc.p.AppendMarshal(buf[:0])
			}
			_ = buf
		})
	}
}

// BenchmarkUnmarshal measures DecodeInto into a reused packet — the
// endpoint ingress path (0 allocs/op once storage is warm).
func BenchmarkUnmarshal(b *testing.B) {
	for _, bc := range hotShapes() {
		b.Run(bc.name, func(b *testing.B) {
			wire := bc.p.Marshal()
			var p Packet
			if err := DecodeInto(&p, wire); err != nil { // warm storage
				b.Fatal(err)
			}
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(&p, wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
