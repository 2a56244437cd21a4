package transport

import (
	"bytes"
	"testing"

	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
)

// streamPattern fills b with a deterministic per-stream byte pattern so
// cross-stream payload mixups are detectable, not just length errors.
func streamPattern(sid uint32, off uint64, b []byte) {
	for i := range b {
		x := off + uint64(i)
		b[i] = byte(uint64(sid)*131 + x*7 + (x >> 8))
	}
}

// streamSink drains every accepted receive stream from inside the sim loop
// (single-goroutine, so blocking Read/Accept would deadlock — it polls with
// TryAccept/ReadAvailable on a timer).
type streamSink struct {
	t       *testing.T
	mux     *stream.RecvMux
	timer   *sim.Timer
	open    []*stream.RecvStream
	got     map[uint32]*bytes.Buffer
	eof     map[uint32]bool
	scratch []byte
}

func newStreamSink(t *testing.T, loop *sim.Loop, mux *stream.RecvMux) *streamSink {
	k := &streamSink{
		t: t, mux: mux,
		got: make(map[uint32]*bytes.Buffer), eof: make(map[uint32]bool),
		scratch: make([]byte, 32<<10),
	}
	k.timer = sim.NewTimer(loop, k.poll)
	k.timer.ResetAfter(sim.Millisecond)
	return k
}

func (k *streamSink) poll() {
	for {
		s := k.mux.TryAccept()
		if s == nil {
			break
		}
		k.open = append(k.open, s)
		k.got[s.ID()] = &bytes.Buffer{}
	}
	live := k.open[:0]
	for _, s := range k.open {
		done := false
		for {
			n, eof, err := s.ReadAvailable(k.scratch)
			if err != nil {
				k.t.Errorf("stream %d: ReadAvailable: %v", s.ID(), err)
				done = true
				break
			}
			if n > 0 {
				k.got[s.ID()].Write(k.scratch[:n])
			}
			if eof {
				k.eof[s.ID()] = true
				done = true
				break
			}
			if n == 0 {
				break
			}
		}
		if !done {
			live = append(live, s)
		}
	}
	k.open = live
	k.timer.ResetAfter(2 * sim.Millisecond)
}

// verify checks every stream's bytes against the deterministic pattern.
func (k *streamSink) verify(sizes map[uint32]int) {
	k.t.Helper()
	for sid, size := range sizes {
		buf, ok := k.got[sid]
		if !ok {
			k.t.Errorf("stream %d: never accepted", sid)
			continue
		}
		if !k.eof[sid] {
			k.t.Errorf("stream %d: no EOF (got %d/%d bytes)", sid, buf.Len(), size)
			continue
		}
		b := buf.Bytes()
		if len(b) != size {
			k.t.Errorf("stream %d: got %d bytes, want %d", sid, len(b), size)
			continue
		}
		want := make([]byte, size)
		streamPattern(sid, 0, want)
		if !bytes.Equal(b, want) {
			k.t.Errorf("stream %d: payload corrupted", sid)
		}
	}
}

// openAndSend opens nStreams on the harness sender, writes size patterned
// bytes to each (buffered entirely up front: SendBuffer must cover size),
// and closes them.
func openAndSend(t *testing.T, h *harness, nStreams, size int) map[uint32]int {
	t.Helper()
	sizes := make(map[uint32]int, nStreams)
	for i := 0; i < nStreams; i++ {
		s, err := h.snd.Streams().Open(stream.Options{})
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, size)
		streamPattern(s.ID(), 0, data)
		if _, err := s.Write(data); err != nil {
			t.Fatalf("stream %d write: %v", s.ID(), err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("stream %d close: %v", s.ID(), err)
		}
		sizes[s.ID()] = size
	}
	return sizes
}

func streamCfg(c stream.Config) Config {
	return Config{Mode: ModeTACK, Streams: &c}
}

func TestStreamMultiplexedTransfer(t *testing.T) {
	cfg := streamCfg(stream.Config{
		RecvWindow: 256 << 10, MaxStreams: 16, SendBuffer: 1 << 20,
	})
	h := newHarness(t, 11, cfg, 50e6, ms(10), 0, 0)
	sizes := openAndSend(t, h, 8, 100<<10)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.run(10 * sim.Second)
	sink.verify(sizes)
	if n := h.snd.Streams().ActiveStreams(); n != 0 {
		t.Errorf("sender still has %d active streams", n)
	}
	if n := h.rcv.Streams().ActiveStreams(); n != 0 {
		t.Errorf("receiver still has %d active streams", n)
	}
}

func TestStreamTransferSurvivesLoss(t *testing.T) {
	cfg := streamCfg(stream.Config{
		RecvWindow: 256 << 10, MaxStreams: 16, SendBuffer: 1 << 20,
	})
	h := newHarness(t, 12, cfg, 50e6, ms(20), 0.02, 0)
	sizes := openAndSend(t, h, 8, 100<<10)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.run(30 * sim.Second)
	sink.verify(sizes)
	if h.snd.Stats.Retransmits == 0 {
		t.Error("2% loss but no retransmissions")
	}
}

func TestStreamSchedulers(t *testing.T) {
	for _, sched := range []string{
		stream.SchedulerRoundRobin, stream.SchedulerPriority, stream.SchedulerWeighted,
	} {
		t.Run(sched, func(t *testing.T) {
			cfg := streamCfg(stream.Config{
				RecvWindow: 256 << 10, MaxStreams: 8,
				SendBuffer: 1 << 20, Scheduler: sched,
			})
			h := newHarness(t, 13, cfg, 20e6, ms(10), 0, 0)
			sizes := openAndSend(t, h, 4, 64<<10)
			sink := newStreamSink(t, h.loop, h.rcv.Streams())
			h.run(10 * sim.Second)
			sink.verify(sizes)
		})
	}
}

// TestStreamFlowControlStallAndResume exercises the per-stream window: a
// reader that consumes nothing fills the 16 KiB stream window and stalls
// the sender; a deferred bulk read must raise the limit via a window-update
// IACK and let the transfer finish.
func TestStreamFlowControlStallAndResume(t *testing.T) {
	const size = 64 << 10
	cfg := streamCfg(stream.Config{
		RecvWindow: 16 << 10, MaxStreams: 4, SendBuffer: 1 << 20,
	})
	h := newHarness(t, 14, cfg, 50e6, ms(10), 0, 0)
	sizes := openAndSend(t, h, 1, size)

	var sid uint32
	for id := range sizes {
		sid = id
	}
	var held *stream.RecvStream
	got := &bytes.Buffer{}
	eof := false
	scratch := make([]byte, 4096)
	drain := func() {
		if held == nil || eof {
			return
		}
		for {
			n, e, err := held.ReadAvailable(scratch)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if n > 0 {
				got.Write(scratch[:n])
			}
			if e {
				eof = true
				return
			}
			if n == 0 {
				return
			}
		}
	}
	accept := sim.NewTimer(h.loop, func() { held = h.rcv.Streams().TryAccept() })
	accept.ResetAfter(50 * sim.Millisecond)

	// Phase check at 500 ms: the window must be exhausted (sender stalled at
	// exactly one stream window) with nothing consumed yet.
	var stalledAt int64
	check := sim.NewTimer(h.loop, func() { stalledAt = h.snd.buf.ReleasedBytes() })
	check.Reset(500 * sim.Millisecond)

	// Resume: drain on a tight poll from 600 ms on.
	var poll *sim.Timer
	poll = sim.NewTimer(h.loop, func() {
		drain()
		if !eof {
			poll.ResetAfter(2 * sim.Millisecond)
		}
	})
	poll.Reset(600 * sim.Millisecond)

	h.run(10 * sim.Second)

	if stalledAt > 17<<10 {
		t.Errorf("sender pushed %d bytes past a 16 KiB stream window", stalledAt)
	}
	if !eof {
		t.Fatalf("stream never finished: got %d/%d bytes", got.Len(), size)
	}
	want := make([]byte, size)
	streamPattern(sid, 0, want)
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("payload corrupted")
	}
	if h.rcv.Stats.WindowIACKs == 0 {
		t.Error("bulk drain released half the stream window but no window-update IACK was sent")
	}
}

// TestStreamNoCrossStreamHoLB holds back one stream (never drained) while
// seven others transfer under loss: the stalled stream must not block the
// others' completion — the head-of-line-blocking win of the stream layer.
func TestStreamNoCrossStreamHoLB(t *testing.T) {
	cfg := streamCfg(stream.Config{
		RecvWindow: 32 << 10, MaxStreams: 16, SendBuffer: 1 << 20,
	})
	h := newHarness(t, 15, cfg, 20e6, ms(20), 0.02, 0)
	sizes := openAndSend(t, h, 8, 64<<10)

	// Sink that refuses to read stream 0 (its window fills and stays full).
	// Stream IDs are allocated sequentially from zero, so sid0 == 0.
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	const sid0 = uint32(0)
	// Replace the poll: accept everything, but only drain IDs != sid0.
	sink.timer.Stop()
	var poll *sim.Timer
	open := []*stream.RecvStream{}
	poll = sim.NewTimer(h.loop, func() {
		for {
			s := h.rcv.Streams().TryAccept()
			if s == nil {
				break
			}
			open = append(open, s)
			sink.got[s.ID()] = &bytes.Buffer{}
		}
		live := open[:0]
		for _, s := range open {
			if s.ID() == sid0 {
				live = append(live, s)
				continue
			}
			done := false
			for {
				n, eofd, err := s.ReadAvailable(sink.scratch)
				if err != nil {
					t.Errorf("stream %d: %v", s.ID(), err)
					done = true
					break
				}
				if n > 0 {
					sink.got[s.ID()].Write(sink.scratch[:n])
				}
				if eofd {
					sink.eof[s.ID()] = true
					done = true
					break
				}
				if n == 0 {
					break
				}
			}
			if !done {
				live = append(live, s)
			}
		}
		open = live
		poll.ResetAfter(2 * sim.Millisecond)
	})
	poll.ResetAfter(sim.Millisecond)

	h.run(30 * sim.Second)

	for sid, size := range sizes {
		if sid == sid0 {
			continue
		}
		buf := sink.got[sid]
		if buf == nil || !sink.eof[sid] {
			n := 0
			if buf != nil {
				n = buf.Len()
			}
			t.Errorf("stream %d blocked behind stalled stream %d: %d/%d bytes",
				sid, sid0, n, size)
			continue
		}
		want := make([]byte, size)
		streamPattern(sid, 0, want)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("stream %d: payload corrupted", sid)
		}
	}
	// The stalled stream must be held to roughly its window, proving the
	// per-stream limit (not the shared connection window) did the gating.
	if sink.eof[sid0] {
		t.Errorf("undrained stream %d completed; its window never gated", sid0)
	}
}

// TestStreamMetricsFlow spot-checks that stream counters reach the
// registry through the transport wiring.
func TestStreamMetricsFlow(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := streamCfg(stream.Config{
		RecvWindow: 256 << 10, MaxStreams: 8, SendBuffer: 1 << 20,
	})
	cfg.Metrics = reg
	h := newHarness(t, 16, cfg, 50e6, ms(10), 0, 0)
	sizes := openAndSend(t, h, 3, 32<<10)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.run(5 * sim.Second)
	sink.verify(sizes)
	for _, name := range []string{
		"stream.opened", "stream.send_closed", "stream.frames_sent",
		"stream.bytes_sent", "stream.accepted", "stream.recv_closed",
		"stream.frames_rcvd", "stream.bytes_rcvd", "stream.window_updates",
	} {
		if v := reg.Counter(name).Value(); v == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	if got := reg.Counter("stream.bytes_rcvd").Value(); got != 3*32<<10 {
		t.Errorf("stream.bytes_rcvd = %d, want %d", got, 3*32<<10)
	}
}
