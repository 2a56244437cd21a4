package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
)

func TestDataRoundTrip(t *testing.T) {
	p := &Packet{
		Type:    TypeData,
		ConnID:  7,
		PktSeq:  42,
		SentAt:  123 * sim.Millisecond,
		Seq:     1500,
		Payload: bytes.Repeat([]byte{0xAB}, 1460),
		Retrans: true,
		FIN:     true,
		IsProbe: true,
	}
	buf := p.Marshal()
	if len(buf) != p.EncodedLen() {
		t.Fatalf("EncodedLen = %d, marshal produced %d", p.EncodedLen(), len(buf))
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestTACKRoundTrip(t *testing.T) {
	p := &Packet{
		Type:   TypeTACK,
		ConnID: 9,
		PktSeq: 100,
		SentAt: sim.Second,
		Ack: &AckInfo{
			CumAck:           99999,
			CumPktSeq:        88,
			LargestPktSeq:    120,
			AckSeq:           17,
			Window:           1 << 20,
			AckDelay:         3 * sim.Millisecond,
			EchoDeparture:    990 * sim.Millisecond,
			DeliveryRate:     200e6,
			LossRatePermille: 12,
			AckedBlocks:      []seqspace.Range{{Lo: 1, Hi: 2}, {Lo: 4, Hi: 7}, {Lo: 10, Hi: 11}},
			UnackedBlocks:    []seqspace.Range{{Lo: 2, Hi: 4}, {Lo: 7, Hi: 10}},
		},
	}
	buf := p.Marshal()
	if len(buf) != p.EncodedLen() {
		t.Fatalf("EncodedLen = %d, marshal produced %d", p.EncodedLen(), len(buf))
	}
	q, err := Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestIACKRoundTrip(t *testing.T) {
	p := &Packet{
		Type:     TypeIACK,
		ConnID:   1,
		PktSeq:   5,
		IACK:     IACKRTTSync,
		RTTMinNS: 12345678,
		Ack:      &AckInfo{CumAck: 10, UnackedBlocks: []seqspace.Range{{Lo: 3, Hi: 5}}},
	}
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestControlRoundTrips(t *testing.T) {
	for _, p := range []*Packet{
		{Type: TypeSYN, ConnID: 3, PktSeq: 0, Seq: 0},
		{Type: TypeSYNACK, ConnID: 3, PktSeq: 0, IACK: IACKHandshake},
		{Type: TypeFIN, ConnID: 3, PktSeq: 9, Seq: 4096},
		{Type: TypeFINACK, ConnID: 3, PktSeq: 2, Ack: &AckInfo{CumAck: 4096}},
	} {
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			t.Fatalf("%v: %v", p.Type, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("%v round trip mismatch:\n p=%+v\n q=%+v", p.Type, p, q)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil buffer should fail")
	}
	if _, err := Unmarshal([]byte{99, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad version should fail")
	}
	p := &Packet{Type: TypeData, Payload: []byte("hello")}
	buf := p.Marshal()
	for cut := 1; cut < len(buf); cut++ {
		if _, err := Unmarshal(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d should fail", cut)
		}
	}
	bad := append([]byte(nil), buf...)
	bad[1] = 200 // unknown type
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("unknown type should fail")
	}
}

func TestWireSizeMatchesPaperScale(t *testing.T) {
	// A full-sized data packet should be close to the paper's 1518-byte
	// frame; a minimal ACK close to its 64-byte frame.
	data := &Packet{Type: TypeData, Payload: make([]byte, 1400)}
	if s := data.EncodedLen() + OverheadEthIPUDP; s < 1400+46 || s > 1518 {
		t.Fatalf("data wire size = %d, want within [1446,1518]", s)
	}
	ack := &Packet{Type: TypeIACK, IACK: IACKKeepalive}
	if s := ack.EncodedLen() + OverheadEthIPUDP; s < 64 || s > 128 {
		t.Fatalf("bare ack wire size = %d, want small (64..128)", s)
	}
}

func TestMaxBlocks(t *testing.T) {
	if n := MaxBlocks(0); n != 83 {
		t.Fatalf("MaxBlocks(0) = %d, want 83", n)
	}
	// A stream ack's nine adverts (eight streams and the initial grant)
	// cost 108 bytes: six blocks.
	if n := MaxBlocks(9); n != 77 {
		t.Fatalf("MaxBlocks(9) = %d, want 77", n)
	}
	if n := MaxBlocks(255); n != 0 {
		t.Fatalf("MaxBlocks(255) = %d, want 0: the adverts alone overflow the datagram", n)
	}
}

func TestTypeAndKindStrings(t *testing.T) {
	if TypeTACK.String() != "TACK" || TypeData.String() != "DATA" {
		t.Fatal("Type.String broken")
	}
	if Type(99).String() == "" || IACKKind(99).String() == "" {
		t.Fatal("unknown values must still format")
	}
	if IACKLoss.String() != "loss" {
		t.Fatal("IACKKind.String broken")
	}
}

// Property: any randomly populated TACK survives a marshal/unmarshal cycle.
func TestQuickTACKRoundTrip(t *testing.T) {
	f := func(cum, largest, wnd uint64, delayNS int64, nAcked, nUnacked uint8, lossPm uint16) bool {
		a := &AckInfo{
			CumAck: cum, LargestPktSeq: largest, Window: wnd,
			AckDelay:         sim.Time(delayNS & 0x7fffffffffffffff),
			LossRatePermille: lossPm,
		}
		for i := 0; i < int(nAcked%40); i++ {
			a.AckedBlocks = append(a.AckedBlocks, seqspace.Range{Lo: uint64(i * 10), Hi: uint64(i*10 + 3)})
		}
		for i := 0; i < int(nUnacked%40); i++ {
			a.UnackedBlocks = append(a.UnackedBlocks, seqspace.Range{Lo: uint64(i*10 + 3), Hi: uint64(i*10 + 7)})
		}
		p := &Packet{Type: TypeTACK, ConnID: 1, PktSeq: largest, Ack: a}
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p, q)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics on arbitrary bytes.
func TestQuickUnmarshalNoPanic(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Unmarshal(raw)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalData(b *testing.B) {
	p := &Packet{Type: TypeData, Payload: make([]byte, 1400), Seq: 1 << 30, PktSeq: 99}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkUnmarshalTACK(b *testing.B) {
	a := &AckInfo{CumAck: 1 << 40}
	for i := 0; i < 32; i++ {
		a.AckedBlocks = append(a.AckedBlocks, seqspace.Range{Lo: uint64(i * 4), Hi: uint64(i*4 + 2)})
	}
	buf := (&Packet{Type: TypeTACK, Ack: a}).Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}
