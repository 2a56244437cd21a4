package stream

import (
	"sort"
	"sync"

	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
)

// SendMux multiplexes application streams onto one connection's sender.
//
// Ownership is split across two goroutine domains: the application calls
// Open / SendStream.Write / SendStream.Close, while the transport sender
// (protocol goroutine) calls NextFrame / OnFrameAcked / OnWindowAdverts.
// One mutex serializes both; application writes that make a stream
// frameable wake the protocol goroutine through the kick callback, which
// must be safe to invoke while the mutex is held (the endpoint's kick is a
// non-blocking shard nudge).
type SendMux struct {
	mu   sync.Mutex
	cfg  Config
	deps SendDeps

	sched   Scheduler
	streams map[uint32]*SendStream
	nextID  uint32
	active  int

	// initialLimit is the peer's InitialWindowID advertisement: the
	// per-stream window granted to streams it has not seen yet, and the
	// bound used to validate later advertisements (an honest receiver's
	// limit never exceeds bytes-sent + initialLimit).
	initialLimit uint64
	haveInitial  bool

	kick    func()
	closed  bool
	err     error
	lastNow sim.Time

	mOpened, mClosed, mFrames, mBytes, mBadWindow *telemetry.Counter
	gActive                                       *telemetry.Gauge
}

// SendDeps are the sender-side mux dependencies.
type SendDeps struct {
	// ConnID labels trace events.
	ConnID uint32
	// Tracer receives stream trace events (nil-safe).
	Tracer *telemetry.Tracer
	// Metrics receives stream.* counters (nil-safe).
	Metrics *telemetry.Registry
}

// NewSendMux builds the send-side stream layer for one connection. cfg
// must already be validated.
func NewSendMux(cfg Config, deps SendDeps) *SendMux {
	cfg = cfg.withDefaults()
	return &SendMux{
		cfg:        cfg,
		deps:       deps,
		sched:      newScheduler(cfg.Scheduler),
		streams:    make(map[uint32]*SendStream),
		mOpened:    deps.Metrics.Counter("stream.opened"),
		mClosed:    deps.Metrics.Counter("stream.send_closed"),
		mFrames:    deps.Metrics.Counter("stream.frames_sent"),
		mBytes:     deps.Metrics.Counter("stream.bytes_sent"),
		mBadWindow: deps.Metrics.Counter("stream.bad_window"),
		gActive:    deps.Metrics.Gauge("stream.send_active"),
	}
}

// SetKick installs the callback that wakes the protocol goroutine after an
// application write or close makes a stream frameable. It must be cheap,
// non-blocking, and callable while mux-internal locks are held.
func (m *SendMux) SetKick(kick func()) {
	m.mu.Lock()
	m.kick = kick
	m.mu.Unlock()
}

// Open creates a new outgoing stream.
func (m *SendMux) Open(opts Options) (*SendStream, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, m.closeErrLocked()
	}
	if m.active >= m.cfg.MaxStreams {
		return nil, ErrTooManyStreams
	}
	s := &SendStream{
		mux:    m,
		id:     m.nextID,
		prio:   opts.Priority,
		weight: opts.Weight,
		fec:    opts.FEC,
	}
	s.cond = sync.NewCond(&m.mu)
	if m.haveInitial {
		s.limit = m.initialLimit
	}
	m.nextID++
	m.streams[s.id] = s
	m.active++
	m.gActive.Set(float64(m.active))
	m.mOpened.Inc()
	m.deps.Tracer.StreamOpened(m.lastNow, m.deps.ConnID, s.id, false)
	return s, nil
}

func (m *SendMux) closeErrLocked() error {
	if m.err != nil {
		return m.err
	}
	return ErrClosed
}

// Close tears the mux down: every stream errors out and blocked writers
// wake. Frames already handed to the sender are unaffected.
func (m *SendMux) Close(err error) {
	if err == nil {
		err = ErrClosed
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
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
}

// ActiveStreams returns the number of live (not fully acknowledged)
// streams.
func (m *SendMux) ActiveStreams() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// frameable reports whether s has anything to put in a frame right now:
// window-permitted unsent data, or an unsent FIN at the tail.
func (m *SendMux) frameable(s *SendStream) bool {
	if s.closedErr != nil || s.done {
		return false
	}
	if s.next < s.writeEnd() && s.next < s.limit {
		return true
	}
	return s.fin && !s.finFramed && s.next == s.writeEnd()
}

// scheduleLocked queues s if it is frameable and not already queued,
// reporting whether the protocol goroutine needs a wakeup.
func (m *SendMux) scheduleLocked(s *SendStream) bool {
	if s.queued || !m.frameable(s) {
		return false
	}
	s.queued = true
	m.sched.Push(s)
	return true
}

// peekLocked returns the next serviceable stream, retiring stale queue
// heads (streams that stopped being frameable since they were pushed).
func (m *SendMux) peekLocked() *SendStream {
	for {
		s := m.sched.Peek()
		if s == nil {
			return nil
		}
		if m.frameable(s) {
			return s
		}
		s.queued = false
		m.sched.Consumed(s, 0, false)
	}
}

// frameLenLocked returns the data-byte length of the next frame from s,
// capped at max and at what one datagram carries: a full stream DATA
// packet, or, on a protected stream, a packet whose repair symbol still
// fits a REPAIR packet.
func (m *SendMux) frameLenLocked(s *SendStream, max int) int {
	budget := packet.MaxStreamPayload
	if s.fec {
		budget = fec.MaxSourcePayload
	}
	n := uint64(min(max, budget))
	if avail := s.writeEnd() - s.next; avail < n {
		n = avail
	}
	if credit := s.limit - s.next; s.limit > s.next && credit < n {
		n = credit
	} else if s.limit <= s.next {
		n = 0
	}
	return int(n)
}

// NextFrameLen reports the connection-sequence-space size of the frame the
// scheduler would emit next (including the FIN phantom byte), with ok
// false when nothing is frameable. The transport sender gates this length
// against the congestion window and pacer before committing via
// NextFrame.
func (m *SendMux) NextFrameLen(max int) (n int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.peekLocked()
	if s == nil {
		return 0, false
	}
	n = m.frameLenLocked(s, max)
	if s.fin && !s.finFramed && s.next+uint64(n) == s.writeEnd() {
		n++ // FIN phantom byte
	}
	return n, true
}

// NextFrame commits the scheduler's next frame: up to max data bytes of
// the head stream, no more than its datagram holds (plus FIN when the
// frame reaches a closed stream's tail). The returned frame owns its
// payload copy.
func (m *SendMux) NextFrame(now sim.Time, max int) (Frame, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastNow = now
	s := m.peekLocked()
	if s == nil {
		return Frame{}, false
	}
	n := m.frameLenLocked(s, max)
	fr := Frame{ID: s.id, Off: s.next, FEC: s.fec}
	if n > 0 {
		fr.Data = append(make([]byte, 0, n), s.data[s.next-s.dataOff:][:n]...)
		s.next += uint64(n)
	}
	if s.fin && !s.finFramed && s.next == s.writeEnd() {
		fr.FIN = true
		s.finFramed = true
	}
	still := m.frameable(s)
	if !still {
		s.queued = false
	}
	m.sched.Consumed(s, fr.WireLen(), still)
	m.mFrames.Inc()
	m.mBytes.Add(int64(n))
	return fr, true
}

// FrameData re-materializes stream bytes for a retransmission: a fresh
// copy of [off, off+n) of stream sid. The segment being retransmitted is
// unacknowledged, so the bytes are still retained.
func (m *SendMux) FrameData(sid uint32, off uint64, n int) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.streams[sid]
	if s == nil || n <= 0 {
		return nil
	}
	if off < s.dataOff || off+uint64(n) > s.writeEnd() {
		return nil // defensive: the range is no longer retained
	}
	return append(make([]byte, 0, n), s.data[off-s.dataOff:][:n]...)
}

// OnFrameAcked releases n acknowledged stream-data bytes of [off, off+n)
// on stream sid (fin reports the frame carried the stream FIN). Fully
// acknowledged closed streams are retired; blocked writers wake as
// retained data is trimmed.
func (m *SendMux) OnFrameAcked(now sim.Time, sid uint32, off uint64, n int, fin bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastNow = now
	s := m.streams[sid]
	if s == nil {
		return
	}
	if n > 0 {
		s.acked.Add(off, off+uint64(n))
	}
	if fin {
		s.finAcked = true
	}
	base := s.acked.ContiguousFrom(s.ackedBase)
	if base > s.ackedBase {
		s.ackedBase = base
		s.acked.RemoveBelow(base)
		if drop := int(s.ackedBase - s.dataOff); drop > 0 {
			kept := copy(s.data, s.data[drop:])
			s.data = s.data[:kept]
			s.dataOff = s.ackedBase
		}
		s.cond.Broadcast()
	}
	if s.fin && s.finAcked && s.ackedBase == s.writeEnd() {
		s.done = true
		delete(m.streams, sid)
		m.active--
		m.gActive.Set(float64(m.active))
		m.mClosed.Inc()
		m.deps.Tracer.StreamClosed(now, m.deps.ConnID, sid, s.writeEnd())
		s.cond.Broadcast()
	}
}

// OnWindowAdverts applies the peer's per-stream flow-control
// advertisements, validating each against bytes actually sent: the
// receiver cannot have consumed more than we transmitted, so an honest
// limit never exceeds sent + initial-window. Violations (and shrinking
// limits) are counted, clamped, and otherwise ignored. It returns whether
// any stream gained sendable credit.
func (m *SendMux) OnWindowAdverts(now sim.Time, ws []packet.StreamWindow) (unblocked bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastNow = now
	for _, w := range ws {
		if w.ID == packet.InitialWindowID {
			if !m.haveInitial || w.Limit > m.initialLimit {
				m.initialLimit = w.Limit
				m.haveInitial = true
				// The initial grant covers streams the receiver has not
				// seen yet — raise every stream still below it, in ID
				// order so the scheduler queue (and thus the whole
				// simulation) stays deterministic.
				ids := make([]uint32, 0, len(m.streams))
				for id := range m.streams {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				for _, id := range ids {
					s := m.streams[id]
					if s.limit < m.initialLimit {
						s.limit = m.initialLimit
						if m.scheduleLocked(s) {
							unblocked = true
						}
					}
				}
			}
			continue
		}
		s := m.streams[w.ID]
		if s == nil {
			continue // completed or never-opened stream: stale advert
		}
		if w.Limit < s.limit {
			m.mBadWindow.Inc()
			continue
		}
		limit := w.Limit
		if m.haveInitial {
			if bound := s.next + m.initialLimit; limit > bound {
				m.mBadWindow.Inc()
				limit = bound
			}
		}
		if limit > s.limit {
			s.limit = limit
			if m.scheduleLocked(s) {
				unblocked = true
			}
		}
	}
	return unblocked
}

// SendStream is the writable half of one multiplexed stream. Write and
// Close follow io.WriteCloser; writes block when the per-stream send
// buffer is full and error once the stream or connection is closed.
type SendStream struct {
	mux    *SendMux
	id     uint32
	prio   int
	weight int
	fec    bool

	// deficit is owned by the weighted scheduler.
	deficit int
	queued  bool

	// data retains bytes [dataOff, dataOff+len(data)) — everything
	// written but not yet contiguously acknowledged.
	data    []byte
	dataOff uint64
	// next is the first never-framed offset.
	next uint64
	// limit is the peer-advertised absolute flow-control limit.
	limit uint64

	acked     seqspace.RangeSet
	ackedBase uint64

	fin       bool
	finFramed bool
	finAcked  bool
	done      bool

	closedErr error
	cond      *sync.Cond
}

// ID returns the stream identifier.
func (s *SendStream) ID() uint32 { return s.id }

// writeEnd is the offset one past the last written byte.
func (s *SendStream) writeEnd() uint64 { return s.dataOff + uint64(len(s.data)) }

// BufferedBytes returns the retained (written, not yet contiguously
// acknowledged) byte count.
func (s *SendStream) BufferedBytes() int {
	s.mux.mu.Lock()
	defer s.mux.mu.Unlock()
	return len(s.data)
}

// Write appends b to the stream, blocking while the per-stream send
// buffer is full. It returns the bytes consumed and the first error
// encountered (ErrClosed after Close, or the connection error after
// teardown).
func (s *SendStream) Write(b []byte) (int, error) {
	m := s.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	total := 0
	for len(b) > 0 {
		if s.closedErr != nil {
			return total, s.closedErr
		}
		if s.fin {
			return total, ErrClosed
		}
		room := m.cfg.SendBuffer - len(s.data)
		if room <= 0 {
			s.cond.Wait()
			continue
		}
		n := min(len(b), room)
		s.data = append(s.data, b[:n]...)
		b = b[n:]
		total += n
		if m.scheduleLocked(s) && m.kick != nil {
			m.kick()
		}
	}
	return total, nil
}

// Close marks the end of the stream: a FIN frame is scheduled after the
// written bytes. Close does not wait for acknowledgment.
func (s *SendStream) Close() error {
	m := s.mux
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.closedErr != nil {
		return s.closedErr
	}
	if s.fin {
		return nil
	}
	s.fin = true
	if m.scheduleLocked(s) && m.kick != nil {
		m.kick()
	}
	return nil
}

// Done reports whether the stream is fully delivered: FIN sent and every
// byte (and the FIN) acknowledged.
func (s *SendStream) Done() bool {
	s.mux.mu.Lock()
	defer s.mux.mu.Unlock()
	return s.done
}
