package stream

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/buffer"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
)

// RecvMux demultiplexes STREAM frames into per-stream reassembly buffers.
//
// Each stream reassembles independently on a buffer.ReceiveBuffer (range
// accounting) paired with a data ring sized to the stream window, so a
// hole on one stream never blocks delivery on another — the
// head-of-line-blocking win the stream layer exists for.
//
// The transport receiver (protocol goroutine) calls OnFrame and collects
// WindowAdverts when it emits acknowledgments; the application calls
// Accept / RecvStream.Read. Consumption raises the stream's advertised
// limit; releasing at least half a stream window, or more of the
// connection window than RecvDeps.WindowRelease since the last
// acknowledgment, arms an urgent advert that the receiver turns into the
// paper's window-update IACK.
type RecvMux struct {
	mu  sync.Mutex
	cfg Config

	streams map[uint32]*RecvStream
	// finished records stream IDs that completed and were retired, so a
	// straggling retransmission cannot resurrect them as fresh streams.
	finished seqspace.RangeSet
	active   int

	acceptCh chan *RecvStream
	closedCh chan struct{}

	// buffered is the bytes held across all stream rings (unconsumed).
	// It changes under mu but is read without it: the receiver checks the
	// connection window on every DATA packet, and a lock there would wait
	// out every application read's copy.
	buffered atomic.Int64
	// release is RecvDeps.WindowRelease; advertBuffered is buffered when
	// WindowAdverts last ran, so advertBuffered-buffered is the connection
	// window the reads have reopened since the last acknowledgment.
	release        int
	advertBuffered int
	urgent         bool
	kick           func()
	closed         bool
	err            error
	lastNow        sim.Time

	mOpened, mClosed, mFrames, mBytes, mViolations, mLimitDrops, mUpdates *telemetry.Counter
	gActive                                                               *telemetry.Gauge

	connID uint32
	tracer *telemetry.Tracer
}

// RecvDeps are the receiver-side mux dependencies.
type RecvDeps struct {
	// ConnID labels trace events.
	ConnID uint32
	// Tracer receives stream trace events (nil-safe).
	Tracer *telemetry.Tracer
	// Metrics receives stream.* counters (nil-safe).
	Metrics *telemetry.Registry
	// WindowRelease, when positive, is the connection-window release that
	// warrants an immediate update: reads that free more than this many
	// bytes since the last acknowledgment arm the urgent advert, so a
	// sender parked on a closed connection window hears of its reopening.
	WindowRelease int
}

// NewRecvMux builds the receive-side stream layer for one connection. cfg
// must already be validated.
func NewRecvMux(cfg Config, deps RecvDeps) *RecvMux {
	cfg = cfg.withDefaults()
	return &RecvMux{
		cfg:         cfg,
		streams:     make(map[uint32]*RecvStream),
		acceptCh:    make(chan *RecvStream, cfg.MaxStreams),
		closedCh:    make(chan struct{}),
		release:     deps.WindowRelease,
		connID:      deps.ConnID,
		tracer:      deps.Tracer,
		mOpened:     deps.Metrics.Counter("stream.accepted"),
		mClosed:     deps.Metrics.Counter("stream.recv_closed"),
		mFrames:     deps.Metrics.Counter("stream.frames_rcvd"),
		mBytes:      deps.Metrics.Counter("stream.bytes_rcvd"),
		mViolations: deps.Metrics.Counter("stream.flow_violations"),
		mLimitDrops: deps.Metrics.Counter("stream.limit_drops"),
		mUpdates:    deps.Metrics.Counter("stream.window_updates"),
		gActive:     deps.Metrics.Gauge("stream.recv_active"),
	}
}

// SetKick installs the callback that nudges the protocol goroutine when an
// application read arms an urgent window advert. Must be cheap and
// non-blocking (see SendMux.SetKick).
func (m *RecvMux) SetKick(kick func()) {
	m.mu.Lock()
	m.kick = kick
	m.mu.Unlock()
}

// OnFrame ingests one STREAM frame (protocol goroutine). It returns the
// count of newly buffered stream bytes, or ok=false when the frame was
// refused (per-stream flow-control violation or stream-limit exhaustion).
func (m *RecvMux) OnFrame(now sim.Time, sid uint32, off uint64, payload []byte, fin bool) (accepted int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastNow = now
	if m.closed {
		return 0, false
	}
	s := m.streams[sid]
	if s == nil {
		if m.finished.Contains(uint64(sid)) {
			return 0, true // stale retransmission for a completed stream
		}
		if m.active >= m.cfg.MaxStreams {
			m.mLimitDrops.Inc()
			return 0, false
		}
		s = &RecvStream{
			mux:  m,
			id:   sid,
			rb:   buffer.NewReceiveBuffer(m.cfg.RecvWindow),
			ring: make([]byte, m.cfg.RecvWindow),
		}
		s.cond = sync.NewCond(&m.mu)
		m.streams[sid] = s
		m.active++
		m.gActive.Set(float64(m.active))
		m.mOpened.Inc()
		m.tracer.StreamOpened(now, m.connID, sid, true)
		select {
		case m.acceptCh <- s:
		default:
			// Unreachable by construction (active ≤ MaxStreams ≤ cap),
			// but never block the protocol goroutine.
		}
	}
	n, overflow := s.rb.Offer(off, len(payload))
	if overflow {
		m.mViolations.Inc()
		return 0, false
	}
	// Copy the in-window overlap into the data ring. Duplicate bytes from
	// overlapping retransmissions overwrite identical content.
	w := uint64(len(s.ring))
	lo, hi := off, off+uint64(len(payload))
	if lo < s.base {
		lo = s.base
	}
	if hi > s.base+w {
		hi = s.base + w // unreachable: Offer refused overflow already
	}
	for lo < hi {
		pos := lo % w
		run := w - pos
		if run > hi-lo {
			run = hi - lo
		}
		copy(s.ring[pos:pos+run], payload[lo-off:])
		lo += run
	}
	if fin {
		s.rb.OnFIN(off + uint64(len(payload)))
	}
	m.buffered.Add(int64(n))
	m.mFrames.Inc()
	m.mBytes.Add(int64(n))
	if s.discard {
		m.drainDiscardLocked(s)
	}
	if s.rb.Readable() > 0 || s.rb.Complete() {
		s.cond.Broadcast()
	}
	return n, true
}

// drainDiscardLocked consumes everything readable on an app-closed stream
// so its window keeps opening and the peer is not stalled.
func (m *RecvMux) drainDiscardLocked(s *RecvStream) {
	n := s.rb.Read(s.rb.Readable())
	s.base += uint64(n)
	m.buffered.Add(-int64(n))
	m.noteConsumedLocked(s)
	if s.rb.Complete() {
		m.retireLocked(s)
	}
}

// noteConsumedLocked updates urgency after the application consumed
// stream bytes: releasing at least half a stream window, or more of the
// connection window than the release threshold, arms the window-update
// IACK.
func (m *RecvMux) noteConsumedLocked(s *RecvStream) {
	limit := s.base + uint64(m.cfg.RecvWindow)
	if limit-s.lastAdvert >= uint64(m.cfg.RecvWindow)/2 ||
		m.release > 0 && m.advertBuffered-int(m.buffered.Load()) > m.release {
		m.urgent = true
	}
}

// retireLocked removes a fully consumed stream.
func (m *RecvMux) retireLocked(s *RecvStream) {
	if s.retired {
		return
	}
	s.retired = true
	delete(m.streams, s.id)
	m.finished.AddValue(uint64(s.id))
	m.active--
	m.gActive.Set(float64(m.active))
	m.mClosed.Inc()
	m.tracer.StreamClosed(m.lastNow, m.connID, s.id, s.rb.Delivered())
}

// Accept returns the next peer-initiated stream, blocking up to timeout
// (timeout <= 0 blocks until the mux closes). It returns ErrClosed after
// teardown and sim-style nil+ErrClosed semantics otherwise.
func (m *RecvMux) Accept(timeout time.Duration) (*RecvStream, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case s := <-m.acceptCh:
		return s, nil
	case <-m.closedCh:
		return nil, m.closeErr()
	case <-timer:
		return nil, ErrTimeout
	}
}

func (m *RecvMux) closeErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	return ErrClosed
}

// TryAccept returns an already-pending peer-initiated stream without
// blocking (nil when none is queued). Suited to single-goroutine
// simulation harnesses where Accept's blocking would deadlock the loop.
func (m *RecvMux) TryAccept() *RecvStream {
	select {
	case s := <-m.acceptCh:
		return s
	default:
		return nil
	}
}

// Close tears the mux down: readers wake with err and Accept unblocks.
func (m *RecvMux) Close(err error) {
	if err == nil {
		err = ErrClosed
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.err = err
	for _, s := range m.streams {
		if s.closedErr == nil {
			s.closedErr = err
		}
		s.cond.Broadcast()
	}
	m.mu.Unlock()
	close(m.closedCh)
}

// Buffered returns the total unconsumed bytes across all stream rings —
// the stream layer's contribution to connection-level window occupancy.
func (m *RecvMux) Buffered() int { return int(m.buffered.Load()) }

// ActiveStreams returns the number of live streams.
func (m *RecvMux) ActiveStreams() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// UrgentAdvert reports whether a large window release is waiting to be
// advertised — the receiver should emit a window-update IACK rather than
// wait for the next TACK boundary.
func (m *RecvMux) UrgentAdvert() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.urgent
}

// InitialWindow returns the per-stream window granted to unseen streams,
// advertised under InitialWindowID on the handshake.
func (m *RecvMux) InitialWindow() uint64 { return uint64(m.cfg.RecvWindow) }

// WindowAdverts collects up to max pending per-stream advertisements
// (streams whose limit rose since last advertised), sorted by stream ID,
// clears the urgent flag and notes the buffered bytes the acknowledgment
// leaves. Streams beyond max stay dirty for the next acknowledgment.
func (m *RecvMux) WindowAdverts(now sim.Time, max int) []packet.StreamWindow {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastNow = now
	urgent := m.urgent
	// Walk streams in ID order so that when more streams are dirty than
	// max, which ones ride this acknowledgment is deterministic (the rest
	// stay dirty for the next one).
	ids := make([]uint32, 0, len(m.streams))
	for id := range m.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []packet.StreamWindow
	for _, id := range ids {
		if len(out) >= max {
			break
		}
		s := m.streams[id]
		limit := s.base + uint64(m.cfg.RecvWindow)
		if limit > s.lastAdvert {
			out = append(out, packet.StreamWindow{ID: s.id, Limit: limit})
			s.lastAdvert = limit
			m.mUpdates.Inc()
			m.tracer.StreamWindow(now, m.connID, s.id, limit, urgent)
		}
	}
	m.urgent = false
	m.advertBuffered = int(m.buffered.Load())
	return out
}

// RecvStream is the readable half of one multiplexed stream.
type RecvStream struct {
	mux *RecvMux
	id  uint32

	// rb tracks received ranges and the FIN in stream-offset space; ring
	// holds the data bytes for offsets [base, base+len(ring)).
	rb   *buffer.ReceiveBuffer
	ring []byte
	base uint64 // == rb.Delivered(): first unconsumed offset

	lastAdvert uint64
	discard    bool
	retired    bool
	closedErr  error
	cond       *sync.Cond
}

// ID returns the stream identifier.
func (s *RecvStream) ID() uint32 { return s.id }

// Read consumes in-order stream bytes, blocking until data, EOF, or an
// error. At end of stream it returns io.EOF.
func (s *RecvStream) Read(p []byte) (int, error) {
	m := s.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		n, eof, err := s.readLocked(p)
		if n > 0 || eof || err != nil {
			if eof {
				return n, io.EOF
			}
			return n, err
		}
		if len(p) == 0 {
			return 0, nil
		}
		s.cond.Wait()
	}
}

// ReadAvailable consumes whatever in-order bytes are ready without
// blocking. eof reports end-of-stream (all bytes consumed through FIN).
// Suited to single-goroutine simulation harnesses.
func (s *RecvStream) ReadAvailable(p []byte) (n int, eof bool, err error) {
	m := s.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.readLocked(p)
}

// readLocked moves up to len(p) readable bytes out of the ring and
// updates window accounting, urgency, and retirement.
func (s *RecvStream) readLocked(p []byte) (n int, eof bool, err error) {
	m := s.mux
	if s.closedErr != nil {
		return 0, false, s.closedErr
	}
	avail := s.rb.Readable()
	if avail > len(p) {
		avail = len(p)
	}
	if avail > 0 {
		w := uint64(len(s.ring))
		lo, hi := s.base, s.base+uint64(avail)
		for lo < hi {
			pos := lo % w
			run := w - pos
			if run > hi-lo {
				run = hi - lo
			}
			copy(p[lo-s.base:], s.ring[pos:pos+run])
			lo += run
		}
		s.rb.Read(avail)
		s.base += uint64(avail)
		m.buffered.Add(-int64(avail))
		n = avail
		m.noteConsumedLocked(s)
		needKick := m.urgent && m.kick != nil
		if s.rb.Complete() {
			m.retireLocked(s)
			eof = true
		}
		if needKick {
			m.kick()
		}
		return n, eof, nil
	}
	if s.rb.Complete() {
		m.retireLocked(s)
		return 0, true, nil
	}
	return 0, false, nil
}

// Close abandons the stream: arriving data is silently consumed (keeping
// flow control moving) until the peer's FIN retires it.
func (s *RecvStream) Close() error {
	m := s.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.discard || s.retired {
		return nil
	}
	s.discard = true
	s.closedErr = ErrClosed
	m.drainDiscardLocked(s)
	s.cond.Broadcast()
	return nil
}
