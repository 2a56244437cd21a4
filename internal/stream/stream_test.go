package stream

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/telemetry"
)

// grantAll gives the send mux a generous initial window so tests that are
// not about flow control can frame freely.
func grantAll(m *SendMux) {
	m.OnWindowAdverts(0, []packet.StreamWindow{{ID: packet.InitialWindowID, Limit: 1 << 40}})
}

// pattern fills b with a deterministic byte sequence derived from (sid,
// off) so any misrouted or misordered byte is detectable.
func pattern(sid uint32, off uint64, b []byte) {
	for i := range b {
		x := off + uint64(i)
		b[i] = byte(uint64(sid)*131 + x*7 + (x >> 8))
	}
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default config invalid: %v", err)
	}
	bad := []Config{
		{RecvWindow: 0, MaxStreams: 4},
		{RecvWindow: -1, MaxStreams: 4},
		{RecvWindow: 4096, MaxStreams: 0},
		{RecvWindow: 4096, MaxStreams: -3},
		{RecvWindow: 4096, MaxStreams: 4, SendBuffer: -1},
		{RecvWindow: 4096, MaxStreams: 4, Scheduler: "fifo"},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, c)
		}
	}
}

// TestRoundRobinInterleaves opens three streams and checks the default
// scheduler serves one frame each in rotation with correct offsets and
// payload bytes.
func TestRoundRobinInterleaves(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 8}, SendDeps{})
	grantAll(m)
	var streams []*SendStream
	for i := 0; i < 3; i++ {
		s, err := m.Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 3000)
		pattern(s.ID(), 0, buf)
		if _, err := s.Write(buf); err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	var order []uint32
	for {
		fr, ok := m.NextFrame(0, 1000)
		if !ok {
			break
		}
		order = append(order, fr.ID)
		want := make([]byte, len(fr.Data))
		pattern(fr.ID, fr.Off, want)
		if !bytes.Equal(fr.Data, want) {
			t.Fatalf("frame sid=%d off=%d: payload mismatch", fr.ID, fr.Off)
		}
	}
	if len(order) != 9 {
		t.Fatalf("expected 9 frames, got %d (%v)", len(order), order)
	}
	for i, id := range order {
		if id != uint32(i%3) {
			t.Fatalf("not round-robin: %v", order)
		}
	}
	_ = streams
}

// TestStrictPriorityOrder checks the priority scheduler drains the
// highest-priority stream completely before touching lower ones.
func TestStrictPriorityOrder(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 8, Scheduler: SchedulerPriority}, SendDeps{})
	grantAll(m)
	low, _ := m.Open(Options{Priority: 1})
	high, _ := m.Open(Options{Priority: 9})
	lowData := make([]byte, 4000)
	highData := make([]byte, 4000)
	pattern(low.ID(), 0, lowData)
	pattern(high.ID(), 0, highData)
	low.Write(lowData)
	high.Write(highData)
	var order []uint32
	for {
		fr, ok := m.NextFrame(0, 1000)
		if !ok {
			break
		}
		order = append(order, fr.ID)
	}
	want := []uint32{high.ID(), high.ID(), high.ID(), high.ID(), low.ID(), low.ID(), low.ID(), low.ID()}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("priority order = %v, want %v", order, want)
	}
}

// TestWeightedShares checks DRR delivers bytes roughly proportional to
// weights over many frames.
func TestWeightedShares(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 22, MaxStreams: 8, Scheduler: SchedulerWeighted, SendBuffer: 1 << 22}, SendDeps{})
	grantAll(m)
	weights := []int{1, 2, 4}
	sent := map[uint32]int{}
	id2w := map[uint32]int{}
	for _, w := range weights {
		s, _ := m.Open(Options{Weight: w})
		id2w[s.ID()] = w
		buf := make([]byte, 1<<20)
		pattern(s.ID(), 0, buf)
		s.Write(buf)
	}
	// Pull a fixed budget of frames, far less than total queued, so every
	// stream stays backlogged and shares reflect scheduling.
	total := 0
	for total < 300_000 {
		fr, ok := m.NextFrame(0, 1500)
		if !ok {
			break
		}
		sent[fr.ID] += len(fr.Data)
		total += len(fr.Data)
	}
	var perWeight [3]float64
	i := 0
	for id, w := range id2w {
		share := float64(sent[id]) / float64(w)
		perWeight[i] = share
		_ = w
		i++
	}
	// All weight-normalized shares should be within 25% of each other.
	min, max := perWeight[0], perWeight[0]
	for _, v := range perWeight[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min <= 0 || max/min > 1.25 {
		t.Fatalf("weighted shares skewed: %v (sent=%v)", perWeight, sent)
	}
}

// TestFlowControlGatesFraming verifies streams cannot frame beyond the
// advertised limit and resume when the limit rises.
func TestFlowControlGatesFraming(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 8}, SendDeps{})
	s, _ := m.Open(Options{})
	data := make([]byte, 5000)
	pattern(s.ID(), 0, data)
	s.Write(data)
	if _, ok := m.NextFrame(0, 1500); ok {
		t.Fatal("framed data with no window advertised")
	}
	m.OnWindowAdverts(0, []packet.StreamWindow{{ID: packet.InitialWindowID, Limit: 2000}})
	got := 0
	for {
		fr, ok := m.NextFrame(0, 1500)
		if !ok {
			break
		}
		got += len(fr.Data)
	}
	if got != 2000 {
		t.Fatalf("framed %d bytes, window allows 2000", got)
	}
	// Raising the per-stream limit resumes framing. An honest receiver
	// advertises consumed+window, so it takes two rounds to reach 5000.
	if !m.OnWindowAdverts(0, []packet.StreamWindow{{ID: s.ID(), Limit: 4000}}) {
		t.Fatal("raised advert did not unblock the stream")
	}
	for {
		fr, ok := m.NextFrame(0, 1500)
		if !ok {
			break
		}
		got += len(fr.Data)
	}
	if got != 4000 {
		t.Fatalf("framed %d bytes after advert 4000, want 4000", got)
	}
	m.OnWindowAdverts(0, []packet.StreamWindow{{ID: s.ID(), Limit: 6000}})
	for {
		fr, ok := m.NextFrame(0, 1500)
		if !ok {
			break
		}
		got += len(fr.Data)
	}
	if got != 5000 {
		t.Fatalf("framed %d bytes total, want all 5000", got)
	}
}

// TestWindowAdvertValidation checks misbehaving-receiver defences: limits
// that shrink or exceed sent+initial-window are counted and clamped.
func TestWindowAdvertValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 8}, SendDeps{Metrics: reg})
	m.OnWindowAdverts(0, []packet.StreamWindow{{ID: packet.InitialWindowID, Limit: 1000}})
	s, _ := m.Open(Options{})
	data := make([]byte, 500)
	s.Write(data)
	for {
		if _, ok := m.NextFrame(0, 400); !ok {
			break
		}
	}
	// Sent 500 bytes; an honest limit can never exceed 500+1000.
	m.OnWindowAdverts(0, []packet.StreamWindow{{ID: s.ID(), Limit: 1 << 30}})
	if v := reg.Counter("stream.bad_window").Value(); v != 1 {
		t.Fatalf("inflated advert not counted: bad_window=%d", v)
	}
	if s.limit != 500+1000 {
		t.Fatalf("inflated advert not clamped: limit=%d", s.limit)
	}
	// Shrinking advert: counted, ignored.
	m.OnWindowAdverts(0, []packet.StreamWindow{{ID: s.ID(), Limit: 10}})
	if v := reg.Counter("stream.bad_window").Value(); v != 2 {
		t.Fatalf("shrinking advert not counted: bad_window=%d", v)
	}
	if s.limit != 1500 {
		t.Fatalf("shrinking advert mutated limit: %d", s.limit)
	}
}

// TestSendFINPhantom verifies a closed stream emits a FIN frame occupying
// one phantom byte of connection sequence space, and that full
// acknowledgment retires the stream.
func TestSendFINPhantom(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 8}, SendDeps{})
	grantAll(m)
	s, _ := m.Open(Options{})
	payload := make([]byte, 100)
	pattern(s.ID(), 0, payload)
	s.Write(payload)
	s.Close()
	n, ok := m.NextFrameLen(1500)
	if !ok || n != 101 {
		t.Fatalf("NextFrameLen = %d,%v; want 101 (100 data + FIN phantom)", n, ok)
	}
	fr, _ := m.NextFrame(0, 1500)
	if !fr.FIN || len(fr.Data) != 100 || fr.WireLen() != 101 {
		t.Fatalf("unexpected FIN frame: fin=%v len=%d wire=%d", fr.FIN, len(fr.Data), fr.WireLen())
	}
	if _, ok := m.NextFrame(0, 1500); ok {
		t.Fatal("stream framed past FIN")
	}
	m.OnFrameAcked(0, s.ID(), 0, 100, true)
	if !s.Done() {
		t.Fatal("fully acked stream not done")
	}
	if m.ActiveStreams() != 0 {
		t.Fatal("retired stream still active")
	}
}

// TestEmptyStreamFIN covers open-then-close with no data: a zero-payload
// FIN frame of wire length 1.
func TestEmptyStreamFIN(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 8}, SendDeps{})
	grantAll(m)
	s, _ := m.Open(Options{})
	s.Close()
	fr, ok := m.NextFrame(0, 1500)
	if !ok || !fr.FIN || len(fr.Data) != 0 || fr.WireLen() != 1 {
		t.Fatalf("empty-stream FIN frame wrong: ok=%v %+v", ok, fr)
	}
	m.OnFrameAcked(0, s.ID(), 0, 0, true)
	if !s.Done() {
		t.Fatal("empty stream not done after FIN ack")
	}
}

// TestFrameDataRetransmit verifies retained bytes can be re-materialized
// for retransmission until acknowledged, and selective acks trim
// retention.
func TestFrameDataRetransmit(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 8}, SendDeps{})
	grantAll(m)
	s, _ := m.Open(Options{})
	data := make([]byte, 3000)
	pattern(s.ID(), 0, data)
	s.Write(data)
	for {
		if _, ok := m.NextFrame(0, 1000); !ok {
			break
		}
	}
	re := m.FrameData(s.ID(), 1000, 1000)
	want := make([]byte, 1000)
	pattern(s.ID(), 1000, want)
	if !bytes.Equal(re, want) {
		t.Fatal("FrameData returned wrong bytes")
	}
	// Ack the middle selectively, then the head: retention trims to 2000.
	m.OnFrameAcked(0, s.ID(), 1000, 1000, false)
	m.OnFrameAcked(0, s.ID(), 0, 1000, false)
	if got := s.BufferedBytes(); got != 1000 {
		t.Fatalf("retained %d bytes after acking 2000 of 3000", got)
	}
	if re := m.FrameData(s.ID(), 2000, 1000); re == nil {
		t.Fatal("unacked tail no longer retrievable")
	}
}

// TestRecvNoHolB: loss on one stream must not block another stream's
// delivery — the core head-of-line-blocking property.
func TestRecvNoHolB(t *testing.T) {
	m := NewRecvMux(Config{RecvWindow: 1 << 16, MaxStreams: 8}, RecvDeps{})
	mkframe := func(sid uint32, off uint64, n int, fin bool) []byte {
		b := make([]byte, n)
		pattern(sid, off, b)
		if _, ok := m.OnFrame(0, sid, off, b, fin); !ok {
			t.Fatalf("frame sid=%d off=%d refused", sid, off)
		}
		return b
	}
	// Stream 0 arrives with a hole at [0,1000); stream 1 arrives complete.
	mkframe(0, 1000, 1000, true)
	mkframe(1, 0, 500, false)
	mkframe(1, 500, 500, true)

	s1 := m.TryAccept()
	s0 := m.TryAccept()
	if s1 == nil || s0 == nil {
		t.Fatal("expected two accepted streams")
	}
	if s1.ID() != 0 {
		s0, s1 = s1, s0 // accept order follows first frame arrival
	}
	// s1 here is stream 0 (holed); s0 is stream 1 (complete).
	var sink [4096]byte
	n, eof, err := s0.ReadAvailable(sink[:])
	if err != nil || !eof || n != 1000 {
		t.Fatalf("complete stream blocked behind other stream's hole: n=%d eof=%v err=%v", n, eof, err)
	}
	want := make([]byte, 1000)
	pattern(1, 0, want)
	if !bytes.Equal(sink[:1000], want) {
		t.Fatal("stream 1 bytes corrupted")
	}
	if n, _, _ := s1.ReadAvailable(sink[:]); n != 0 {
		t.Fatalf("holed stream delivered %d bytes before repair", n)
	}
	// Repair the hole; stream 0 becomes fully readable.
	mkframe(0, 0, 1000, false)
	n, eof, err = s1.ReadAvailable(sink[:])
	if err != nil || !eof || n != 2000 {
		t.Fatalf("repaired stream: n=%d eof=%v err=%v", n, eof, err)
	}
	if m.ActiveStreams() != 0 {
		t.Fatal("consumed streams not retired")
	}
}

// TestRecvOverlappingRetransmits re-offers ranges that partially overlap
// already-delivered data and checks bytes, accounting, and window
// integrity.
func TestRecvOverlappingRetransmits(t *testing.T) {
	m := NewRecvMux(Config{RecvWindow: 4096, MaxStreams: 2}, RecvDeps{})
	frame := func(off uint64, n int, fin bool) {
		b := make([]byte, n)
		pattern(3, off, b)
		if _, ok := m.OnFrame(0, 3, off, b, fin); !ok {
			t.Fatalf("frame off=%d refused", off)
		}
	}
	frame(0, 1000, false)
	s := m.TryAccept()
	var sink [8192]byte
	if n, _, _ := s.ReadAvailable(sink[:]); n != 1000 {
		t.Fatalf("read %d", n)
	}
	// Retransmission overlapping consumed data [500,1500): only the new
	// half may be buffered, and delivered bytes must not re-deliver.
	if acc, ok := m.OnFrame(0, 3, 500, mkPattern(3, 500, 1000), false); !ok || acc != 500 {
		t.Fatalf("overlap accept = %d,%v want 500,true", acc, ok)
	}
	// Duplicate of buffered data: zero new bytes.
	if acc, ok := m.OnFrame(0, 3, 1000, mkPattern(3, 1000, 500), false); !ok || acc != 0 {
		t.Fatalf("duplicate accept = %d,%v want 0,true", acc, ok)
	}
	frame(1500, 500, true)
	n, eof, err := s.ReadAvailable(sink[:])
	if n != 1000 || !eof || err != nil {
		t.Fatalf("tail read n=%d eof=%v err=%v", n, eof, err)
	}
	want := mkPattern(3, 1000, 1000)
	if !bytes.Equal(sink[:1000], want) {
		t.Fatal("overlapping retransmits corrupted the stream")
	}
	if m.Buffered() != 0 {
		t.Fatalf("Buffered=%d after full consumption", m.Buffered())
	}
}

// TestRecvRingGrowsOnDemand: a stream read as it arrives keeps the
// smallest ring however long it runs; a reader that lags grows the ring
// to the span it leaves unread, up to the window, and growing while the
// held bytes wrap round the ring's end keeps every byte.
func TestRecvRingGrowsOnDemand(t *testing.T) {
	const window = 1 << 17
	m := NewRecvMux(Config{RecvWindow: window, MaxStreams: 2}, RecvDeps{})
	var off uint64
	frame := func(n int) {
		if _, ok := m.OnFrame(0, 5, off, mkPattern(5, off, n), false); !ok {
			t.Fatalf("frame off=%d refused", off)
		}
		off += uint64(n)
	}
	sink := make([]byte, window)
	read := func(want int) {
		t.Helper()
		base := m.streams[5].base
		n, _, err := m.streams[5].ReadAvailable(sink)
		if n != want || err != nil {
			t.Fatalf("read %d, %v; want %d", n, err, want)
		}
		if !bytes.Equal(sink[:n], mkPattern(5, base, n)) {
			t.Fatalf("bytes [%d,%d) corrupted", base, base+uint64(n))
		}
	}
	for i := 0; i < 100; i++ { // 100 kB, read frame by frame
		frame(1000)
		read(1000)
	}
	if got := len(m.streams[5].ring); got != minRing {
		t.Fatalf("prompt reader: ring %d bytes, want %d", got, minRing)
	}
	frame(15000) // from 100000 % minRing on: wraps round the ring's end
	frame(28000)
	if got := len(m.streams[5].ring); got != 43000 {
		t.Fatalf("43 kB unread: ring %d bytes, want 43000", got)
	}
	read(43000)
	frame(window)
	if got := len(m.streams[5].ring); got != window {
		t.Fatalf("a full window unread: ring %d bytes, want %d", got, window)
	}
	read(window)
}

func mkPattern(sid uint32, off uint64, n int) []byte {
	b := make([]byte, n)
	pattern(sid, off, b)
	return b
}

// TestRecvFlowViolation: a frame beyond the advertised stream window is
// refused and counted.
func TestRecvFlowViolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewRecvMux(Config{RecvWindow: 1024, MaxStreams: 2}, RecvDeps{Metrics: reg})
	if _, ok := m.OnFrame(0, 0, 900, make([]byte, 500), false); ok {
		t.Fatal("window-violating frame accepted")
	}
	if v := reg.Counter("stream.flow_violations").Value(); v != 1 {
		t.Fatalf("flow_violations=%d", v)
	}
	// In-window data still flows.
	if _, ok := m.OnFrame(0, 0, 0, make([]byte, 500), false); !ok {
		t.Fatal("in-window frame refused")
	}
}

// TestRecvStreamLimit: frames for streams beyond MaxStreams are dropped
// and counted, and retiring a stream frees the slot.
func TestRecvStreamLimit(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewRecvMux(Config{RecvWindow: 1024, MaxStreams: 2}, RecvDeps{Metrics: reg})
	m.OnFrame(0, 0, 0, []byte{1}, true)
	m.OnFrame(0, 1, 0, []byte{1}, true)
	if _, ok := m.OnFrame(0, 2, 0, []byte{1}, true); ok {
		t.Fatal("third stream accepted past MaxStreams=2")
	}
	if v := reg.Counter("stream.limit_drops").Value(); v != 1 {
		t.Fatalf("limit_drops=%d", v)
	}
	s := m.TryAccept()
	var b [8]byte
	if _, eof, _ := s.ReadAvailable(b[:]); !eof {
		t.Fatal("expected eof")
	}
	// Slot freed: stream 2 now fits.
	if _, ok := m.OnFrame(0, 2, 0, []byte{1}, true); !ok {
		t.Fatal("stream rejected after slot freed")
	}
	// A retransmission for the retired stream must not resurrect it.
	if _, ok := m.OnFrame(0, s.ID(), 0, []byte{1}, true); !ok {
		t.Fatal("stale retransmission refused (should be silently dropped)")
	}
	if m.ActiveStreams() != 2 {
		t.Fatalf("ActiveStreams=%d", m.ActiveStreams())
	}
}

// TestWindowAdvertsRiseWithConsumption: consuming bytes raises the
// stream's advertised limit; consuming half the window arms the urgent
// (window-IACK) flag.
func TestWindowAdvertsRiseWithConsumption(t *testing.T) {
	m := NewRecvMux(Config{RecvWindow: 1000, MaxStreams: 4}, RecvDeps{})
	m.OnFrame(0, 0, 0, mkPattern(0, 0, 1000), false)
	s := m.TryAccept()
	// Initial advert state: limit base 0+1000; nothing consumed yet so
	// first WindowAdverts carries limit 1000.
	ws := m.WindowAdverts(0, 16)
	if len(ws) != 1 || ws[0].Limit != 1000 {
		t.Fatalf("initial adverts %v", ws)
	}
	if m.UrgentAdvert() {
		t.Fatal("urgent before any consumption")
	}
	var sink [600]byte
	s.Read(sink[:]) // consume 600 ≥ window/2 → urgent
	if !m.UrgentAdvert() {
		t.Fatal("half-window release did not arm urgent advert")
	}
	ws = m.WindowAdverts(0, 16)
	if len(ws) != 1 || ws[0].Limit != 1600 {
		t.Fatalf("post-consumption adverts %v", ws)
	}
	if m.UrgentAdvert() {
		t.Fatal("urgent not cleared by advert flush")
	}
}

// TestConnectionWindowReleaseArmsUrgent: reads that free more of the
// connection window than WindowRelease since the last acknowledgment arm
// the urgent advert even when no stream frees half its own window.
func TestConnectionWindowReleaseArmsUrgent(t *testing.T) {
	m := NewRecvMux(Config{RecvWindow: 1 << 20, MaxStreams: 4}, RecvDeps{WindowRelease: 1000})
	m.OnFrame(0, 0, 0, mkPattern(0, 0, 3000), false)
	s := m.TryAccept()
	m.WindowAdverts(0, 16) // the acknowledgment left with 3000 bytes held
	var sink [1000]byte
	s.Read(sink[:]) // exactly the threshold: not yet
	if m.UrgentAdvert() {
		t.Fatal("a release of exactly WindowRelease armed the urgent advert")
	}
	s.Read(sink[:1])
	if !m.UrgentAdvert() {
		t.Fatal("connection-window release did not arm the urgent advert")
	}
	m.WindowAdverts(0, 16)
	s.Read(sink[:])
	if m.UrgentAdvert() {
		t.Fatal("the release is counted from the last acknowledgment, not from the start")
	}
}

// TestAcceptBlockingAndClose verifies Accept wakes on close and blocked
// readers error out.
func TestAcceptBlockingAndClose(t *testing.T) {
	m := NewRecvMux(Config{RecvWindow: 1024, MaxStreams: 2}, RecvDeps{})
	m.OnFrame(0, 9, 0, []byte{1, 2}, false)
	s, err := m.Accept(0)
	if err != nil || s.ID() != 9 {
		t.Fatalf("Accept: %v %v", s, err)
	}
	done := make(chan error, 1)
	go func() {
		var b [8]byte
		b2, _, _ := s.ReadAvailable(b[:]) // drain the 2 ready bytes
		_ = b2
		_, err := s.Read(b[:]) // now block
		done <- err
	}()
	m.Close(nil)
	if err := <-done; err == nil || err == io.EOF {
		t.Fatalf("blocked reader returned %v, want closed error", err)
	}
	if _, err := m.Accept(0); err == nil {
		t.Fatal("Accept after close succeeded")
	}
}

// TestWriteBlocksOnSendBuffer verifies Write applies backpressure at the
// per-stream cap and resumes as acknowledgments trim retention.
func TestWriteBlocksOnSendBuffer(t *testing.T) {
	m := NewSendMux(Config{RecvWindow: 1 << 20, MaxStreams: 2, SendBuffer: 1000}, SendDeps{})
	grantAll(m)
	s, _ := m.Open(Options{})
	if _, err := s.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	go func() {
		s.Write(make([]byte, 500))
		close(wrote)
	}()
	select {
	case <-wrote:
		t.Fatal("Write past SendBuffer did not block")
	default:
	}
	// Frame and ack the first 600 bytes: retention drops, writer resumes.
	for sent := 0; sent < 600; {
		fr, ok := m.NextFrame(0, 300)
		if !ok {
			t.Fatal("nothing to frame")
		}
		sent += len(fr.Data)
	}
	m.OnFrameAcked(0, s.ID(), 0, 600, false)
	<-wrote
}
