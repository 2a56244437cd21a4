package endpoint

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

const (
	// completeLinger keeps a completed receiver connection registered so
	// tail retransmissions still get re-acknowledged (the sender may not
	// have seen the final TACK yet).
	completeLinger = sim.Second
	// closeLinger bounds how long a FIN-closed connection waits for the
	// peer's FINACK, and a finished sender for the acknowledgment of its
	// tail probe, before being torn down anyway.
	closeLinger = 500 * sim.Millisecond
)

// Conn is one connection half multiplexed on an Endpoint: a sans-IO
// Sender (dialed connections) or Receiver (accepted connections) whose
// timers live on the owning shard's loop (see shard.loop).
//
// All protocol state — including the Sender/Receiver state machines and
// their Stats — is driven by the connection's owning shard goroutine.
// Reading them is safe only after Wait (or Done) signals completion,
// which happens-before the shard stops touching the connection.
type Conn struct {
	ep   *Endpoint
	sh   *shard
	id   uint32
	peer *net.UDPAddr

	// The protocol half, built on the shard goroutine (its timers go on
	// the shard's loop) before the application sees the connection.
	snd *transport.Sender
	rcv *transport.Receiver

	// Shard-owned lifecycle state: only the owning shard goroutine touches
	// it after registration, and its times are on the shard's loop.
	established   bool
	closing       bool
	created       sim.Time
	closeDeadline sim.Time
	completeAt    sim.Time
	lastRecv      sim.Time
	lastSent      sim.Time
	// Embryo SYNACK retransmission schedule (receiver side only).
	hsRetries int
	nextHS    sim.Time

	// hk is the housekeeping timer on the shard loop, set to the earliest
	// lifecycle deadline (see shard.housekeep) — including, while packets
	// keep arriving or leaving (lastActive), nextRefresh: the next
	// snapshot/anomaly pass, unset while there is none to run.
	hk          *sim.Timer
	nextRefresh sim.Time
	lastActive  sim.Time

	// Path-migration state (shard-owned; see migration.go): the candidate
	// address and token, the episode's anti-amplification byte counts and
	// challenge schedule, and migBlocked, a challenge the budget holds back.
	migState      pathState
	migAddr       *net.UDPAddr
	migToken      uint64
	migRx         int64
	migTx         int64
	migRetries    int
	migChallenges int
	migBlocked    bool
	migNext       sim.Time
	migDeadline   sim.Time
	migStarted    sim.Time
	migCompleted  int64 // validated migrations over the connection's life

	// kickQueued dedups pending stream kicks; guarded by sh.kickMu.
	kickQueued bool

	// Flight recorder: ring is the always-on per-connection event
	// buffer; tracer is the ring tracer installed in front of the
	// template tracer (or the template tracer itself when the recorder
	// is disabled). anom is the shard-owned anomaly-detector state.
	ring   *telemetry.Ring
	tracer *telemetry.Tracer
	anom   anomalyState

	// snap is the latest shard-published observability snapshot; readers
	// (StateSnapshot, the debug endpoint) only load the pointer.
	snap atomic.Pointer[ConnState]

	estCh     chan struct{} // closed by the shard on establishment
	doneOnce  sync.Once
	doneCh    chan struct{}
	closeOnce sync.Once
	err       error // set before doneCh closes; read only after <-doneCh

	// ownsEndpoint marks connections created by the package-level Dial,
	// whose private endpoint is closed when the connection finishes.
	ownsEndpoint bool
}

// newConn builds the shared connection scaffolding; the caller assigns
// id + shard and attaches the protocol half, and the shard's add starts
// its clocks.
func (ep *Endpoint) newConn(peer *net.UDPAddr) *Conn {
	return &Conn{
		ep:            ep,
		peer:          peer,
		closeDeadline: unset,
		completeAt:    unset,
		nextRefresh:   unset,
		anom:          anomalyState{lastProgress: unset, wndBlockedSince: unset},
		estCh:         make(chan struct{}),
		doneCh:        make(chan struct{}),
	}
}

// engineConfig returns the transport template made c's own: its id, and
// the per-connection flight recorder installed in front of the template
// tracer (unless Config.FlightRecorder is negative). The effective tracer
// stays in c.tracer: endpoint-level events about the connection (migration
// rejects, anomalies) go through it and so land in the recorder too.
func (c *Conn) engineConfig() transport.Config {
	tcfg := c.ep.cfg.Transport
	tcfg.ConnID = c.id
	if c.ep.cfg.FlightRecorder >= 0 {
		c.ring = telemetry.NewRing(c.ep.cfg.FlightRecorder)
		tcfg.Tracer = telemetry.WithRing(c.ring, tcfg.Tracer)
	}
	c.tracer = tcfg.Tracer
	return tcfg
}

// FlightRecorder returns the connection's flight-recorder ring (nil
// when Config.FlightRecorder is negative).
func (c *Conn) FlightRecorder() *telemetry.Ring { return c.ring }

// StateSnapshot returns the most recent observability snapshot the
// owning shard published for this connection: the first when it registers
// or accepts the connection, one every snapshotRefresh while packets flow,
// the last when the connection finishes. The returned struct is a private
// copy; the call reads one atomic pointer and takes no datapath lock.
func (c *Conn) StateSnapshot() *ConnState {
	s := c.snap.Load()
	if s == nil {
		return nil
	}
	cp := s.read()
	return &cp
}

// output transmits a protocol packet to the peer. Runs on the shard
// goroutine (loop callbacks execute there), which owns the egress queue:
// the packet is encoded into a pooled buffer and coalesced with the rest
// of the burst into one batched write.
func (c *Conn) output(p *packet.Packet) {
	c.lastSent = c.sh.loop.Now()
	c.sh.touch(c)
	c.sh.enqueue(p, c.peer)
}

// finish closes doneCh exactly once with the given terminal error. Shard
// goroutine only: it reads the protocol half the shard built.
func (c *Conn) finish(err error) {
	c.doneOnce.Do(func() {
		c.err = err
		if c.snd != nil {
			if m := c.snd.Streams(); m != nil {
				m.Close(err)
			}
		}
		if c.rcv != nil {
			if m := c.rcv.Streams(); m != nil {
				m.Close(err)
			}
		}
		close(c.doneCh)
		if d := c.ep.driver; d != nil {
			d.changed = true
		}
		if c.ownsEndpoint {
			// Close must not run on the shard goroutine (it waits for it).
			go c.ep.Close()
		}
	})
}

// ConnID returns the connection id carried by every packet of this
// connection.
func (c *Conn) ConnID() uint32 { return c.id }

// RemoteAddr returns the peer's UDP address.
func (c *Conn) RemoteAddr() *net.UDPAddr { return c.peer }

// LocalAddr returns the endpoint's bound UDP address.
func (c *Conn) LocalAddr() *net.UDPAddr { return c.ep.LocalAddr() }

// Sender returns the sending half (nil on accepted connections). Safe to
// read concurrently only after Wait/Done reports completion.
func (c *Conn) Sender() *transport.Sender { return c.snd }

// Receiver returns the receiving half (nil on dialed connections). Safe
// to read concurrently only after Wait/Done reports completion.
func (c *Conn) Receiver() *transport.Receiver { return c.rcv }

// OpenStream opens a new outgoing multiplexed stream with default
// scheduling options. It returns stream.ErrStreamsDisabled unless the
// connection was dialed with Config.Transport.Streams set.
func (c *Conn) OpenStream() (*stream.SendStream, error) {
	return c.OpenStreamOptions(stream.Options{})
}

// OpenStreamOptions opens a new outgoing multiplexed stream with explicit
// scheduling options (priority / weight, honored by the configured
// scheduler). Safe from any goroutine.
func (c *Conn) OpenStreamOptions(opts stream.Options) (*stream.SendStream, error) {
	if c.snd == nil {
		return nil, stream.ErrStreamsDisabled
	}
	m := c.snd.Streams()
	if m == nil {
		return nil, stream.ErrStreamsDisabled
	}
	return m.Open(opts)
}

// AcceptStream waits up to timeout for the peer to open a stream and
// returns its receiving half. A non-positive timeout polls. It returns
// stream.ErrStreamsDisabled unless the connection was accepted with
// Config.Transport.Streams set, and stream.ErrTimeout when nothing
// arrives in time. Safe from any goroutine.
func (c *Conn) AcceptStream(timeout time.Duration) (*stream.RecvStream, error) {
	if c.rcv == nil {
		return nil, stream.ErrStreamsDisabled
	}
	m := c.rcv.Streams()
	if m == nil {
		return nil, stream.ErrStreamsDisabled
	}
	return m.Accept(timeout)
}

// CompletedAt returns the wall time the receiving half finished its
// transfer — before the completion linger that keeps the connection
// re-acknowledging tail retransmissions — or the zero time if the
// connection never completed (sender half, failure, or still running).
// Valid once Done is closed.
func (c *Conn) CompletedAt() time.Time {
	if c.completeAt == unset {
		return time.Time{}
	}
	return c.sh.wall(c.completeAt)
}

// Done returns a channel closed when the connection terminates (transfer
// complete, closed, reaped, or endpoint shutdown).
func (c *Conn) Done() <-chan struct{} { return c.doneCh }

// Err returns the terminal error (nil for a clean completion or graceful
// close). Valid once Done is closed.
func (c *Conn) Err() error {
	select {
	case <-c.doneCh:
		return c.err
	default:
		return nil
	}
}

// Wait blocks until the connection terminates or d elapses (d <= 0 waits
// without bound). It returns the terminal error: nil for a completed
// transfer or graceful close, ErrDeadline when d elapsed first.
func (c *Conn) Wait(d time.Duration) error {
	var deadline <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case <-c.doneCh:
		return c.err
	case <-deadline:
		return ErrDeadline
	}
}

// Close tears the connection down. A mid-transfer sending connection
// closes gracefully: a FIN is emitted and the connection lingers briefly
// for the peer's FINACK, and Done closes when that ends. Close is
// idempotent and safe from any goroutine.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		select {
		case c.sh.in <- shardMsg{op: opClose, conn: c}:
		case <-c.ep.stop:
			// shard.shutdown finishes every connection of a closing endpoint.
		}
	})
	return nil
}

// DialAddr opens a standalone sending connection to raddr: a private
// single-shard endpoint is bound to an ephemeral port and closed
// automatically when the connection finishes. Use Endpoint.Dial to
// multiplex many connections over one socket.
func DialAddr(raddr string, tcfg transport.Config) (*Conn, error) {
	ep, err := Listen(":0", Config{Transport: tcfg, Shards: 1})
	if err != nil {
		return nil, err
	}
	c, err := ep.dial(raddr, true)
	if err != nil {
		ep.Close()
		return nil, err
	}
	return c, nil
}
