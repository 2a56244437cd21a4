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
//	socket driver (socket.go)                   shard (shard.go)
//	┌────────────────────┐ hash(ConnID) & mask ┌───────────────────────────┐
//	│ read loop / socket │ ──────────────────▶ │ handle · onPacket ·       │
//	│ ReadBatch, decode  │  bounded channel    │ housekeep · flush         │
//	├────────────────────┤  (overflow = drop)  │                           │
//	│ shard goroutine    │ ── loop.RunUntil ─▶ │ conns map, sans-IO        │
//	│ OS timer, epoch:   │    (wall − epoch)   │ Sender / Receiver engines │
//	│ wake-up → vnow     │ ◀─ WriteBatch ───── │ and every lifecycle time  │
//	└────────────────────┘   (egress queue)    │ on one sim.Loop           │
//	                                           └───────────────────────────┘
//
// Each connection's protocol engine runs on exactly one shard — the
// engines keep their single-threaded discipline, and the dispatch hot path
// needs no lock at all: routing is a pure hash of the connection id and
// every shard owns its connection table exclusively. A shard's one clock
// is its loop; only the driver reads the wall clock, and it hands the
// shard decoded packets and a batch writer. Cross-goroutine operations
// (Dial registration, user Close) travel through the shard's channel as
// control messages. The tests drive the same shards on one seeded loop.
//
// Lifecycle: inbound SYNs create embryonic connections that reach Accept
// only once the handshake completes (first non-SYN packet); Dial blocks
// until the SYN/SYNACK exchange finishes; Close performs a graceful
// FIN/FINACK teardown; Done closes only when the shard removes the
// connection, on every path. Idle connections and stale embryos are
// reaped by each connection's housekeeping timer on the shard's loop
// (between deadlines an idle connection costs its shard nothing). A
// shared endpoint must also sanity-check receiver feedback before acting
// on it (cf. misbehaving-receiver / optimistic-ACK attacks):
// acknowledgments claiming bytes that were never sent are dropped and
// counted instead of inflating the congestion controller.
package endpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// Datapath batching parameters.
const (
	// readBatchSize is how many maxDatagram slots a socket's reader owns:
	// one recvmmsg fills at most that many, and with UDP GRO each slot can
	// hold a whole segment train, so a read already returns several times
	// this many datagrams. Every slot is resident for the socket's life.
	readBatchSize = 8
	// drainBurst bounds how many queued packets a shard handles per
	// wake-up before it runs its timers and flushes.
	drainBurst = 64
	// shardQueue is how many decoded packets may wait for one shard. A
	// shard descheduled for a few milliseconds receives everything its
	// connections have in flight, and a window covers the TACK interval:
	// one fast loopback flow keeps about 1 MB there, which overflowed 1024
	// slots (1.5 MB of DATA).
	shardQueue = 4096
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
	// DebugAddr, when non-empty, is the TCP address Listen serves the
	// debug HTTP routes on (/metrics, /debug/tack/conns, /debug/pprof/;
	// see debug.go) until Close. Endpoint instruments register in
	// Transport.Metrics, which a DebugAddr without one gets a fresh
	// registry for, so the routes are never empty.
	DebugAddr string
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
	if c.DebugAddr != "" && c.Transport.Metrics == nil {
		c.Transport.Metrics = telemetry.NewRegistry()
	}
	return c
}

// handshakeRetryRTO returns the embryo SYNACK retransmission timeout for
// the given retry count: Transport.HandshakeRTO — the schedule the dialed
// side's SYNs follow — doubled per retry, clamped to HandshakeTimeout
// (beyond which the embryo reaper wins anyway).
func (c Config) handshakeRetryRTO(retries int) sim.Time {
	rto, max := c.Transport.HandshakeRTO, sim.Time(c.HandshakeTimeout)
	if rto <= 0 {
		rto = transport.DefaultHandshakeRTO
	}
	for i := 0; i < retries; i++ {
		rto *= 2
		if rto >= max {
			return max
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

	// debug serves Config.DebugAddr (nil without one); Close stops it.
	debug *http.Server

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
	if cfg.EnableMigration && cfg.IdleTimeout > 0 && sim.Time(cfg.IdleTimeout) <= migrationTimeout {
		// A probing episode starves the connection of dispatched packets
		// for up to migrationTimeout; an idle reaper tighter than that
		// would tear the connection down mid-validation.
		return nil, fmt.Errorf("endpoint: IdleTimeout %v must exceed the %v path-validation window when EnableMigration is set",
			cfg.IdleTimeout, migrationTimeout)
	}
	ucs, err := batchio.ListenReusePortGroup("udp", laddr, cfg.Sockets)
	if err != nil {
		return nil, fmt.Errorf("endpoint: listen %q: %w", laddr, err)
	}
	// The platform fallback may have clamped the group; everything below
	// sizes off the effective count.
	cfg.Sockets = len(ucs)
	socks := make([]*epSocket, len(ucs))
	for i, uc := range ucs {
		socks[i] = newEpSocket(i, uc, cfg.Transport.Metrics)
	}
	ep := newEndpoint(cfg, socks, time.Now().UnixNano())
	ep.start()
	if cfg.DebugAddr != "" {
		if err := ep.serveDebug(cfg.DebugAddr); err != nil {
			ep.Close()
			return nil, err
		}
	}
	return ep, nil
}

// newEndpoint builds an endpoint over socks and starts nothing; its
// ConnIDs come from idSeed, and its driver sets each shard's writer.
func newEndpoint(cfg Config, socks []*epSocket, idSeed int64) *Endpoint {
	ep := &Endpoint{
		cfg:    cfg,
		socks:  socks,
		accept: make(chan *Conn, cfg.AcceptBacklog),
		stop:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(idSeed)),
		used:   map[uint32]*Conn{},
	}
	reg := cfg.Transport.Metrics
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
		ep.shards[i] = newShard(ep, ep.socks[i%len(ep.socks)], ep.rng.Int63())
	}
	if n := uint32(len(ep.shards)); n&(n-1) == 0 {
		ep.shardMask, ep.shardPow2 = n-1, true
	}
	return ep
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

// decode checks a datagram's CRC32-C frame trailer (frame.go), decodes it
// into a pooled packet and rejects one that fails packet.Sane (the CRC
// proves the bytes arrived as sent, not that the sender is honest),
// counting each drop; nil means dropped. Both drivers call it per datagram.
func (ep *Endpoint) decode(sock *epSocket, b []byte, from *net.UDPAddr) *inPacket {
	if len(b) < frameTrailerLen {
		ep.mRxGarbage.Inc()
		sock.mDrops.Inc()
		return nil
	}
	body, ok := checkFrameCRC(b)
	if !ok {
		ep.mRxCorrupt.Inc()
		sock.mDrops.Inc()
		return nil
	}
	ipk := ep.getPacket()
	if err := packet.DecodeInto(&ipk.pkt, body); err != nil {
		ep.mRxGarbage.Inc()
		sock.mDrops.Inc()
		ep.putPacket(ipk)
		return nil
	}
	if err := ipk.pkt.Sane(); err != nil {
		ep.mRxCorrupt.Inc()
		sock.mDrops.Inc()
		ep.putPacket(ipk)
		return nil
	}
	ipk.setFrom(from)
	ep.mRxPackets.Inc()
	sock.mRx.Inc()
	return ipk
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
	c := ep.register(ra)
	c.ownsEndpoint = owns
	// The owning shard builds the sending half and starts the handshake.
	select {
	case c.sh.in <- shardMsg{op: opRegister, conn: c}:
	case <-ep.stop:
		ep.releaseID(c.id)
		return nil, ErrClosed
	}
	ep.mDials.Inc()
	if err := ep.awaitDial(c); err != nil {
		return nil, err
	}
	return c, nil
}

// register builds a connection dialing ra and reserves its id, which
// picks its shard; the shard starts it on an opRegister message.
func (ep *Endpoint) register(ra *net.UDPAddr) *Conn {
	c := ep.newConn(ra)
	c.id = ep.allocID(c)
	c.sh = ep.shardFor(c.id)
	return c
}

// awaitDial blocks until c's handshake completes, fails or times out.
func (ep *Endpoint) awaitDial(c *Conn) error {
	t := time.NewTimer(ep.cfg.HandshakeTimeout)
	defer t.Stop()
	select {
	case <-c.estCh:
		return nil
	case <-c.doneCh:
		// A short transfer may complete before this goroutine runs; select
		// then picks either ready case, and established is success.
		select {
		case <-c.estCh:
			return nil
		default:
		}
		return c.err
	case <-t.C:
		c.Close()
		select {
		case <-c.doneCh: // teardown is complete before reporting failure
		case <-ep.stop: // a closing endpoint's shards may already be gone
		}
		return ErrHandshakeTimeout
	case <-ep.stop:
		return ErrClosed
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

// Close shuts the endpoint down: the debug listener and every group
// socket close, shard workers finish every connection (their Wait
// unblocks with ErrClosed), and Accept/Dial return ErrClosed. Safe to
// call multiple times.
func (ep *Endpoint) Close() error {
	ep.closeOnce.Do(func() {
		close(ep.stop)
		if ep.debug != nil {
			ep.debug.Close()
		}
		for _, s := range ep.socks {
			s.uc.Close()
		}
	})
	ep.wg.Wait()
	return nil
}
