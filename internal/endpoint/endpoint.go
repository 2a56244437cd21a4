// Package endpoint implements a concurrent multi-connection UDP endpoint:
// one socket serving many TACK connections, demultiplexed by the wire
// format's connection id (packet.ConnID).
//
// This is the deployment shape of the paper's user-mode stack (§5.4) grown
// from "one socket, one flow" to a server: QUIC-style endpoints show the
// pattern — a handshake-gated accept queue and per-connection state behind
// a single UDP socket.
//
// Architecture:
//
//	          ┌──────────────┐    hash(ConnID) % N     ┌─────────────┐
//	UDP ───▶  │ read goroutine│ ───────────────────▶   │  shard 0..N │
//	socket    │ (unmarshal)  │     bounded channel     │  goroutine  │
//	          └──────────────┘  (overflow == drop: the └─────────────┘
//	                             protocol is loss-       │ owns conns map
//	                             tolerant)               │ + one sim.Loop
//	                                                     ▼
//	                                        per-conn sans-IO Sender /
//	                                        Receiver, all scheduling on
//	                                        the shard's loop, which is
//	                                        pinned to wall time and
//	                                        backed by one time.Timer
//
// Each connection's protocol engine runs on exactly one shard goroutine —
// the engines keep their single-threaded discipline, and the dispatch hot
// path needs no lock at all: routing is a pure hash of the connection id
// and every shard owns its connection table exclusively. Cross-goroutine
// operations (Dial registration, user Close) travel through the shard's
// channel as control messages.
//
// Lifecycle: inbound SYNs create embryonic connections that reach Accept
// only once the handshake completes (first non-SYN packet); Dial blocks
// until the SYN/SYNACK exchange finishes; Close performs a graceful
// FIN/FINACK teardown; idle connections and stale embryos are reaped by
// each connection's housekeeping timer on the shard's loop (between
// deadlines an idle connection costs its shard nothing). A shared endpoint
// must also sanity-check receiver
// feedback before acting on it (cf. misbehaving-receiver / optimistic-ACK
// attacks): acknowledgments claiming bytes that were never sent are
// dropped and counted instead of inflating the congestion controller.
package endpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// Datapath batching parameters.
const (
	// readBatchSize bounds how many datagrams one recvmmsg drains; under
	// load a single syscall amortizes across the whole batch.
	readBatchSize = 32
	// maxDatagram is the largest decodable datagram (a payload length is
	// 16 bits, so the wire format tops out just past 64 KiB).
	maxDatagram = 64 << 10
	// egressBatchSize bounds a shard's send queue: a connection's
	// pacing-tick burst coalesces into one sendmmsg up to this size.
	egressBatchSize = 32
)

// inPacket is a pooled inbound unit: a decoded packet plus a stable copy
// of its source address (the batch reader's own sockaddr slots are
// overwritten by the next batch, so the address must travel with the
// packet into the shard). The packet's payload/ack storage is recycled
// through the pool, making the steady-state ingress path allocation-free.
type inPacket struct {
	pkt  packet.Packet
	from net.UDPAddr
	ip   [16]byte // backing array for from.IP
}

// setFrom copies addr into the pooled address slot.
func (ip *inPacket) setFrom(addr *net.UDPAddr) {
	n := copy(ip.ip[:], addr.IP)
	ip.from.IP = ip.ip[:n]
	ip.from.Port = addr.Port
	ip.from.Zone = ""
}

// Sentinel errors returned by endpoint operations.
var (
	// ErrClosed reports that the endpoint (or the connection's endpoint)
	// was closed.
	ErrClosed = errors.New("endpoint: closed")
	// ErrHandshakeTimeout reports that a dialed connection saw no SYNACK
	// within Config.HandshakeTimeout.
	ErrHandshakeTimeout = errors.New("endpoint: handshake timeout")
	// ErrIdleTimeout reports that a connection was reaped after
	// Config.IdleTimeout without inbound traffic.
	ErrIdleTimeout = errors.New("endpoint: idle timeout")
	// ErrDeadline reports that a wait's deadline elapsed.
	ErrDeadline = errors.New("endpoint: deadline exceeded")
)

// Config parameterizes an Endpoint.
type Config struct {
	// Transport is the per-connection template; ConnID is overwritten per
	// connection. Accepted connections run the Receiver half, dialed
	// connections the Sender half, both built from this template.
	Transport transport.Config
	// Shards is the number of worker goroutines connections are pinned to
	// (by ConnID hash). Default min(GOMAXPROCS, 8) rounded down to a
	// power of two (a power-of-two count keeps the demux hot path on a
	// mask instead of a modulo), and never below Sockets so every group
	// member owns at least one shard's egress.
	Shards int
	// Sockets is the size of the endpoint's SO_REUSEPORT socket group: N
	// UDP sockets bound to the same address, each with its own batched
	// read loop, so inbound demux scales past one goroutine. Default 1
	// (single socket, today's behavior). Values > 1 require platform
	// support (Linux); elsewhere the endpoint silently falls back to one
	// socket — read the effective size back with SocketCount. Connections
	// are steered by ConnID to a shard wherever their packets arrive, and
	// reply from the owning shard's socket (see DESIGN.md "Socket
	// groups").
	Sockets int
	// AcceptBacklog bounds the handshake-gated accept queue (default 128).
	// Connections completing their handshake while the queue is full are
	// dropped and counted (ep.accept_drops).
	AcceptBacklog int
	// IdleTimeout reaps established connections after this long without
	// inbound traffic. Default 30s; negative disables.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds both Dial's wait for a SYNACK and the
	// lifetime of embryonic (accepted-but-unestablished) server state.
	// Default 5s.
	HandshakeTimeout time.Duration
	// KeepaliveInterval, when positive, makes dialed (sender) connections
	// emit a keepalive IACK after this long without transmitting, keeping
	// the peer's idle reaper at bay during app-paced silences.
	KeepaliveInterval time.Duration
	// EnableMigration turns on QUIC-style path validation for established
	// connections: a known ConnID arriving from a new address starts a
	// PATH_CHALLENGE probe of that address instead of being rejected
	// outright, and a matching PATH_RESPONSE migrates the connection (see
	// migration.go and DESIGN.md "Path migration"). Off by default: the
	// connection stays bound to its handshake-time source address and
	// foreign packets are rejected (ep.migration_rejected). Answering
	// on-path challenges from the peer is always on — the knob gates only
	// whether this endpoint initiates probes.
	EnableMigration bool
	// Metrics registers endpoint-level instruments (nil falls back to
	// Transport.Metrics; both nil disables).
	Metrics *telemetry.Registry
	// FlightRecorder sizes the per-connection flight-recorder ring
	// (telemetry events, overwrite-oldest). 0 selects
	// telemetry.DefaultRingSize; negative disables the recorder. The
	// recorder is always on otherwise — even with no Tracer configured —
	// so anomaly post-mortems capture the events leading up to a wedge.
	FlightRecorder int
	// PostMortemDir, when non-empty, is where anomaly detectors dump a
	// connection's flight-recorder ring as a JSONL post-mortem file
	// (postmortem-conn<id>-<class>.jsonl, readable by cmd/tacktrace).
	// Empty disables dumps; detection still counts and traces.
	PostMortemDir string
	// DebugAddr, when non-empty, is the address the tack facade serves
	// the debug HTTP endpoint on (/metrics, /debug/pprof/,
	// /debug/tack/conns). The endpoint package itself does not open the
	// listener — package tack wires it to avoid a dependency cycle.
	DebugAddr string
	// StallRTOs is the no-progress stall detector's threshold in
	// multiples of the (backoff-free) RTO. Default 4.
	StallRTOs int
}

func (c Config) withDefaults() Config {
	if c.Sockets < 1 {
		c.Sockets = 1
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 8 {
			c.Shards = 8
		}
		c.Shards = floorPow2(c.Shards)
		if c.Shards < c.Sockets {
			// Every socket should own at least one shard's egress.
			c.Shards = c.Sockets
		}
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = 128
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = c.Transport.Metrics
	}
	if c.StallRTOs <= 0 {
		c.StallRTOs = 4
	}
	return c
}

// handshakeRetryRTO returns the embryo SYNACK retransmission timeout for
// the given retry count: Transport.HandshakeRTO — the schedule the dialed
// side's SYNs follow — doubled per retry, clamped to HandshakeTimeout
// (beyond which the embryo reaper wins anyway).
func (c Config) handshakeRetryRTO(retries int) time.Duration {
	rto := time.Duration(c.Transport.HandshakeRTO)
	if rto <= 0 {
		rto = time.Duration(transport.DefaultHandshakeRTO)
	}
	for i := 0; i < retries; i++ {
		rto *= 2
		if rto >= c.HandshakeTimeout {
			return c.HandshakeTimeout
		}
	}
	return rto
}

// handshakeRetryBudget returns the SYNACK retransmission cap for embryos:
// Transport.MaxSYNRetries, read the way the transport reads it.
func (c Config) handshakeRetryBudget() int {
	switch n := c.Transport.MaxSYNRetries; {
	case n < 0:
		return 0
	case n == 0:
		return transport.DefaultMaxSYNRetries
	default:
		return n
	}
}

// floorPow2 rounds n down to the nearest power of two (minimum 1).
func floorPow2(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// Endpoint is a multi-connection UDP endpoint: a socket group (one
// socket by default), many connections demultiplexed by ConnID across
// sharded worker loops.
type Endpoint struct {
	cfg   Config
	socks []*epSocket

	shards []*shard
	// shardMask is len(shards)-1 when the count is a power of two (the
	// mask fast path of shardFor); shardPow2 gates it.
	shardMask uint32
	shardPow2 bool
	accept    chan *Conn

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// ConnID allocation (cold path).
	mu   sync.Mutex
	rng  *rand.Rand
	used map[uint32]*Conn

	nConns atomic.Int64

	// Datapath freelists: decoded inbound packets (reader → shard → back)
	// and encoded egress datagrams (shard → kernel → back).
	pktPool sync.Pool
	bufPool sync.Pool

	// Shutdown hooks (facade-attached debug server, etc.); run once
	// after the workers drain.
	hookMu    sync.Mutex
	onClose   []func()
	hooksOnce sync.Once

	// Endpoint telemetry (nil-safe).
	mConns             *telemetry.Gauge
	mSockets           *telemetry.Gauge
	mRxPackets         *telemetry.Counter
	mRxGarbage         *telemetry.Counter
	mRxErrors          *telemetry.Counter
	mRxCorrupt         *telemetry.Counter
	mTxErrors          *telemetry.Counter
	mDemuxDrops        *telemetry.Counter
	mMigrationRejected *telemetry.Counter
	mMigProbes         *telemetry.Counter
	mMigCompleted      *telemetry.Counter
	mMigFailed         *telemetry.Counter
	mSynackRetrans     *telemetry.Counter
	mAcceptDrops       *telemetry.Counter
	mBadFeedback       *telemetry.Counter
	mReaped            *telemetry.Counter
	mDials             *telemetry.Counter
	mAccepts           *telemetry.Counter
	mHandshake         *telemetry.Histogram
	// Shard scheduling: wake-ups by cause, OS-timer lateness, queued timers.
	mWakeups   [numWakeCauses]*telemetry.Counter
	mTimerLate *telemetry.Histogram
	mTimers    *telemetry.Gauge
	nTimers    atomic.Int64
	// Anomaly counters, indexed like anomalyClasses, plus post-mortem
	// dump accounting and the aggregated ACK-overhead gauge.
	mAnomaly         [len(anomalyClasses)]*telemetry.Counter
	mAnomalyDumps    *telemetry.Counter
	mAnomalyDumpErrs *telemetry.Counter
	mAckOverhead     *telemetry.Gauge

	// Batched-datapath telemetry: syscall batch sizes, egress train
	// lengths, trains-off latches, and freelist hit rates (hit rate =
	// 1 - misses/gets).
	mBatchRead     *telemetry.Histogram
	mBatchWrite    *telemetry.Histogram
	mTrainSize     *telemetry.Histogram
	mGSOFallbacks  *telemetry.Counter
	mPktPoolGets   *telemetry.Counter
	mPktPoolMisses *telemetry.Counter
	mBufPoolGets   *telemetry.Counter
	mBufPoolMisses *telemetry.Counter
}

// getPacket takes a decoded-packet slot from the freelist.
func (ep *Endpoint) getPacket() *inPacket {
	ep.mPktPoolGets.Inc()
	return ep.pktPool.Get().(*inPacket)
}

// putPacket recycles a slot (its payload/ack storage rides along).
func (ep *Endpoint) putPacket(p *inPacket) { ep.pktPool.Put(p) }

// getBuf takes an egress datagram buffer from the freelist.
func (ep *Endpoint) getBuf() *[]byte {
	ep.mBufPoolGets.Inc()
	return ep.bufPool.Get().(*[]byte)
}

// putBuf recycles an egress buffer (retaining any grown capacity).
func (ep *Endpoint) putBuf(b *[]byte) { ep.bufPool.Put(b) }

// Listen binds the endpoint's socket group on laddr (Config.Sockets
// SO_REUSEPORT members; one plain socket by default) and starts a read
// loop per socket plus the shard workers. The endpoint both accepts
// inbound connections (Accept) and originates outbound ones (Dial) over
// the same group.
func Listen(laddr string, cfg Config) (*Endpoint, error) {
	if err := cfg.Transport.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.EnableMigration && cfg.IdleTimeout > 0 && cfg.IdleTimeout <= migrationTimeout {
		// A probing episode starves the connection of dispatched packets
		// for up to migrationTimeout; an idle reaper tighter than that
		// would tear the connection down mid-validation.
		return nil, fmt.Errorf("endpoint: IdleTimeout %v must exceed the %v path-validation window when EnableMigration is set",
			cfg.IdleTimeout, migrationTimeout)
	}
	socks, err := batchio.ListenReusePortGroup("udp", laddr, cfg.Sockets)
	if err != nil {
		return nil, fmt.Errorf("endpoint: listen %q: %w", laddr, err)
	}
	// The platform fallback may have clamped the group; everything below
	// sizes off the effective count.
	cfg.Sockets = len(socks)
	ep := &Endpoint{
		cfg:    cfg,
		accept: make(chan *Conn, cfg.AcceptBacklog),
		stop:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
		used:   map[uint32]*Conn{},
	}
	reg := cfg.Metrics
	ep.socks = make([]*epSocket, len(socks))
	for i, uc := range socks {
		// The socket carries many connections: newEpSocket grows the
		// kernel buffers so concurrent initial windows don't silently
		// vanish before its read loop drains them (best-effort; the OS
		// may clamp).
		ep.socks[i] = newEpSocket(i, uc, reg)
	}
	ep.mConns = reg.Gauge("ep.conns")
	ep.mSockets = reg.Gauge("ep.sock.count")
	ep.mSockets.Set(float64(len(ep.socks)))
	ep.mRxPackets = reg.Counter("ep.rx_packets")
	ep.mRxGarbage = reg.Counter("ep.rx_garbage")
	ep.mRxErrors = reg.Counter("ep.rx_err")
	ep.mRxCorrupt = reg.Counter("ep.rx_corrupt")
	ep.mTxErrors = reg.Counter("ep.tx_errors")
	ep.mDemuxDrops = reg.Counter("ep.demux_drops")
	ep.mMigrationRejected = reg.Counter("ep.migration_rejected")
	ep.mMigProbes = reg.Counter("ep.migration.probes")
	ep.mMigCompleted = reg.Counter("ep.migration.completed")
	ep.mMigFailed = reg.Counter("ep.migration.failed")
	ep.mSynackRetrans = reg.Counter("ep.synack_retransmits")
	ep.mAcceptDrops = reg.Counter("ep.accept_drops")
	ep.mBadFeedback = reg.Counter("ep.bad_feedback")
	ep.mReaped = reg.Counter("ep.reaped")
	ep.mDials = reg.Counter("ep.dials")
	ep.mAccepts = reg.Counter("ep.accepts")
	ep.mHandshake = reg.Histogram("ep.handshake_s")
	ep.mWakeups[wakePacket] = reg.Counter("ep.shard.wakeups.packet")
	ep.mWakeups[wakeKick] = reg.Counter("ep.shard.wakeups.kick")
	ep.mWakeups[wakeTimer] = reg.Counter("ep.shard.wakeups.timer")
	ep.mWakeups[wakeControl] = reg.Counter("ep.shard.wakeups.control")
	ep.mTimerLate = reg.Histogram("ep.shard.timer_late_s")
	ep.mTimers = reg.Gauge("ep.shard.timers")
	ep.mAnomaly[anomalyIndex(telemetry.TrigStall)] = reg.Counter("ep.anomaly.stall")
	ep.mAnomaly[anomalyIndex(telemetry.TrigRetxStorm)] = reg.Counter("ep.anomaly.retx_storm")
	ep.mAnomaly[anomalyIndex(telemetry.TrigWndExhaust)] = reg.Counter("ep.anomaly.wnd_exhaust")
	ep.mAnomaly[anomalyIndex(telemetry.TrigMigStorm)] = reg.Counter("ep.anomaly.mig_storm")
	ep.mAnomalyDumps = reg.Counter("ep.anomaly.dumps")
	ep.mAnomalyDumpErrs = reg.Counter("ep.anomaly.dump_errors")
	ep.mAckOverhead = reg.Gauge("ep.ack_overhead_bytes_per_mb")
	ep.mBatchRead = reg.Histogram("ep.batch.read_size")
	ep.mBatchWrite = reg.Histogram("ep.batch.write_size")
	ep.mTrainSize = reg.Histogram("ep.batch.train_size")
	ep.mGSOFallbacks = reg.Counter("ep.batch.gso_fallbacks")
	ep.mPktPoolGets = reg.Counter("ep.batch.pkt_pool_gets")
	ep.mPktPoolMisses = reg.Counter("ep.batch.pkt_pool_misses")
	ep.mBufPoolGets = reg.Counter("ep.batch.buf_pool_gets")
	ep.mBufPoolMisses = reg.Counter("ep.batch.buf_pool_misses")
	ep.pktPool.New = func() any {
		ep.mPktPoolMisses.Inc()
		return &inPacket{}
	}
	ep.bufPool.New = func() any {
		ep.mBufPoolMisses.Inc()
		b := make([]byte, 0, 2048)
		return &b
	}

	// Shard→socket egress binding: shard i replies through socket
	// i % Sockets, so a connection pinned to a shard always transmits
	// from the same group member (reply-from-owner). Socket counts are
	// powers of two in the defaulted path, but modulo is fine here —
	// this runs once at setup, not per packet.
	ep.shards = make([]*shard, cfg.Shards)
	for i := range ep.shards {
		ep.shards[i] = newShard(ep, ep.socks[i%len(ep.socks)])
	}
	if n := uint32(len(ep.shards)); n&(n-1) == 0 {
		ep.shardMask, ep.shardPow2 = n-1, true
	}
	for _, sh := range ep.shards {
		ep.wg.Add(1)
		go sh.run()
	}
	for _, s := range ep.socks {
		ep.wg.Add(1)
		go ep.readLoop(s)
	}
	return ep, nil
}

// LocalAddr returns the bound UDP address (every socket-group member
// shares it).
func (ep *Endpoint) LocalAddr() *net.UDPAddr { return ep.socks[0].uc.LocalAddr().(*net.UDPAddr) }

// ConnCount returns the number of live connections (including embryonic
// and draining ones).
func (ep *Endpoint) ConnCount() int { return int(ep.nConns.Load()) }

// shardFor routes a connection id to its shard (Knuth multiplicative
// hash; pure function, no lock — this is the demux hot path, run by
// every socket's read loop). Power-of-two shard counts — the defaulted
// configuration — take the mask path; the xor-fold spreads the hash's
// well-mixed high bits into the low bits the mask keeps.
func (ep *Endpoint) shardFor(id uint32) *shard {
	h := id * 2654435761
	h ^= h >> 16
	if ep.shardPow2 {
		return ep.shards[h&ep.shardMask]
	}
	return ep.shards[h%uint32(len(ep.shards))]
}

// readLoop pulls datagram batches off one socket-group member (one
// recvmmsg per batch on Linux, whole segment trains split back into their
// datagrams by batchio), decodes each into a pooled packet, and
// routes them to the owning shard — which may be bound to a different
// socket: accept-anywhere, reply-from-owner. Overflowing a shard's
// channel drops the packet (backpressure surfaces as loss; the protocol
// recovers). The pooled packet travels into the shard, which returns it
// to the freelist after dispatch — the reader itself never allocates in
// steady state.
func (ep *Endpoint) readLoop(sock *epSocket) {
	defer ep.wg.Done()
	rd := sock.bconn.NewReader(readBatchSize, maxDatagram)
	var backoff time.Duration
	for {
		ms, err := rd.ReadBatch()
		if err != nil {
			if ep.isClosed() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient socket error: count it and retry with exponential
			// backoff so a persistent failure (a wedged deadline, a bad
			// fd) degrades to a throttled retry loop instead of spinning
			// a core.
			ep.mRxErrors.Inc()
			backoff = nextReadBackoff(backoff)
			select {
			case <-ep.stop:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		ep.mBatchRead.Observe(float64(len(ms)))
		sock.mBatchRead.Observe(float64(len(ms)))
		for i := range ms {
			// The CRC32-C frame trailer (see frame.go) catches any
			// userspace corruption of the datagram content; a mismatch
			// is dropped here, before the decoder runs, and recovered by
			// the loss machinery like any other dropped packet.
			if ms[i].N < frameTrailerLen {
				ep.mRxGarbage.Inc()
				sock.mDrops.Inc()
				continue
			}
			body, ok := checkFrameCRC(ms[i].Buf[:ms[i].N])
			if !ok {
				ep.mRxCorrupt.Inc()
				sock.mDrops.Inc()
				continue
			}
			ipk := ep.getPacket()
			if err := packet.DecodeInto(&ipk.pkt, body); err != nil {
				ep.mRxGarbage.Inc()
				sock.mDrops.Inc()
				ep.putPacket(ipk)
				continue
			}
			// Defense in depth behind the CRC: reject internally
			// inconsistent packets (a hostile sender passes the CRC, the
			// trailer only proves the bytes arrived as sent) before their
			// fields reach protocol state (see packet.Sane).
			if err := ipk.pkt.Sane(); err != nil {
				ep.mRxCorrupt.Inc()
				sock.mDrops.Inc()
				ep.putPacket(ipk)
				continue
			}
			ipk.setFrom(ms[i].Addr)
			ep.mRxPackets.Inc()
			sock.mRx.Inc()
			sh := ep.shardFor(ipk.pkt.ConnID)
			select {
			case sh.in <- shardMsg{op: opPacket, ipk: ipk}:
			default:
				ep.mDemuxDrops.Inc()
				sock.mDrops.Inc()
				ep.putPacket(ipk)
			}
		}
	}
}

// Accept blocks until an inbound connection completes its handshake, the
// endpoint closes (ErrClosed), or — when deadline > 0 — the deadline
// elapses (ErrDeadline).
func (ep *Endpoint) Accept() (*Conn, error) { return ep.AcceptTimeout(0) }

// AcceptTimeout is Accept with a bound on the wait (0 = no bound).
func (ep *Endpoint) AcceptTimeout(d time.Duration) (*Conn, error) {
	var deadline <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case c := <-ep.accept:
		return c, nil
	case <-ep.stop:
		return nil, ErrClosed
	case <-deadline:
		return nil, ErrDeadline
	}
}

// Dial opens a sending connection to raddr using the endpoint's transport
// template and blocks until the handshake completes (or
// Config.HandshakeTimeout / endpoint close aborts it). The transfer
// itself — bounded by Transport.TransferBytes or app-paced — starts
// immediately after establishment; wait for completion with Conn.Wait.
func (ep *Endpoint) Dial(raddr string) (*Conn, error) { return ep.dial(raddr, false) }

func (ep *Endpoint) dial(raddr string, owns bool) (*Conn, error) {
	ra, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("endpoint: resolve %q: %w", raddr, err)
	}
	c := ep.newConn(ra, time.Now())
	c.ownsEndpoint = owns
	c.id = ep.allocID(c)
	c.sh = ep.shardFor(c.id)
	// The owning shard builds the sending half and starts the handshake.
	select {
	case c.sh.in <- shardMsg{op: opRegister, conn: c}:
	case <-ep.stop:
		ep.releaseID(c.id)
		return nil, ErrClosed
	}
	ep.mDials.Inc()
	t := time.NewTimer(ep.cfg.HandshakeTimeout)
	defer t.Stop()
	select {
	case <-c.estCh:
		return c, nil
	case <-c.doneCh:
		return nil, c.err
	case <-t.C:
		c.Close()
		select {
		case <-c.doneCh: // teardown is complete before reporting failure
		case <-ep.stop: // a closing endpoint's shards may already be gone
		}
		return nil, ErrHandshakeTimeout
	case <-ep.stop:
		return nil, ErrClosed
	}
}

// allocID reserves a locally unique non-zero connection id for c.
func (ep *Endpoint) allocID(c *Conn) uint32 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		id := ep.rng.Uint32()
		if id == 0 {
			continue
		}
		if _, taken := ep.used[id]; taken {
			continue
		}
		ep.used[id] = c
		return id
	}
}

// reserveID claims an inbound (peer-chosen) id; reports false when a live
// connection already owns it.
func (ep *Endpoint) reserveID(id uint32, c *Conn) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if _, taken := ep.used[id]; taken {
		return false
	}
	ep.used[id] = c
	return true
}

func (ep *Endpoint) releaseID(id uint32) {
	ep.mu.Lock()
	delete(ep.used, id)
	ep.mu.Unlock()
}

// connAdded / connRemoved maintain the live-connection count and gauge.
// Called only from shard goroutines; the gauge tolerates the benign race
// between shards (last write wins on a monotonic-enough signal).
func (ep *Endpoint) connAdded()   { ep.mConns.Set(float64(ep.nConns.Add(1))) }
func (ep *Endpoint) connRemoved() { ep.mConns.Set(float64(ep.nConns.Add(-1))) }

func (ep *Endpoint) isClosed() bool {
	select {
	case <-ep.stop:
		return true
	default:
		return false
	}
}

// OnClose registers fn to run once after the endpoint has fully shut
// down (workers drained). The tack facade uses it to stop the debug
// HTTP server with the endpoint. Hooks registered after Close may run
// immediately on the caller's goroutine.
func (ep *Endpoint) OnClose(fn func()) {
	ep.hookMu.Lock()
	ep.onClose = append(ep.onClose, fn)
	ep.hookMu.Unlock()
}

// Close shuts the endpoint down: every group socket closes, shard
// workers finish every connection (their Wait unblocks with ErrClosed),
// and Accept/Dial return ErrClosed. Safe to call multiple times.
func (ep *Endpoint) Close() error {
	ep.closeOnce.Do(func() {
		close(ep.stop)
		for _, s := range ep.socks {
			s.uc.Close()
		}
	})
	ep.wg.Wait()
	ep.hooksOnce.Do(func() {
		ep.hookMu.Lock()
		hooks := ep.onClose
		ep.hookMu.Unlock()
		for _, fn := range hooks {
			fn()
		}
	})
	return nil
}

// Metrics returns the endpoint's metrics registry (possibly nil).
func (ep *Endpoint) Metrics() *telemetry.Registry { return ep.cfg.Metrics }
