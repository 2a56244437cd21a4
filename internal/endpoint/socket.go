package endpoint

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
)

// The socket driver runs shards on sockets and wall time: a read loop per
// socket decodes datagrams into their shards' channels, and a goroutine per
// shard turns each wake-up into loop.RunUntil(wall time since its epoch).

// epSocket is one member of the endpoint's socket group (one by default):
// a UDP socket with its batched-I/O wrapper, read loop and per-socket
// telemetry. Steering (DESIGN.md "Socket groups"): a packet may arrive on
// any member and goes to the shard its ConnID hashes to, and every reply
// leaves through that shard's socket; the members share one local port.
type epSocket struct {
	uc    *net.UDPConn
	bconn *batchio.Conn

	// Per-socket telemetry (ep.sock.<idx>.*): receive/transmit packet
	// counts, datagrams dropped before dispatch (garbage, corrupt, or
	// shard-queue overflow), and syscall batch-size histograms — the
	// inputs tackstat's socket table and any imbalance diagnosis need.
	mRx         *telemetry.Counter
	mTx         *telemetry.Counter
	mDrops      *telemetry.Counter
	mBatchRead  *telemetry.Histogram
	mBatchWrite *telemetry.Histogram
}

// newEpSocket wraps one bound UDP socket for the group, growing its
// kernel buffers (many connections share it) and registering the
// per-socket instruments.
func newEpSocket(idx int, uc *net.UDPConn, reg *telemetry.Registry) *epSocket {
	uc.SetReadBuffer(4 << 20)
	uc.SetWriteBuffer(4 << 20)
	return &epSocket{
		uc:          uc,
		bconn:       batchio.New(uc),
		mRx:         reg.Counter(socketCounterName(idx, "rx_packets")),
		mTx:         reg.Counter(socketCounterName(idx, "tx_packets")),
		mDrops:      reg.Counter(socketCounterName(idx, "rx_drops")),
		mBatchRead:  reg.Histogram(socketCounterName(idx, "batch.read_size")),
		mBatchWrite: reg.Histogram(socketCounterName(idx, "batch.write_size")),
	}
}

// socketCounterName is the registered name of a per-socket instrument:
// ep.sock.<idx>.<name>. Consumers (tackstat's socket table, tests)
// reconstruct the group's names from ep.sock.count.
func socketCounterName(idx int, name string) string {
	return fmt.Sprintf("ep.sock.%d.%s", idx, name)
}

// start pins every shard's loop to the wall clock from now on, hands it
// its socket's egress writer, and starts the shard workers and a read
// loop per socket.
func (ep *Endpoint) start() {
	for _, sh := range ep.shards {
		sh.epoch = time.Now()
		sh.timer = time.NewTimer(time.Hour)
		sh.timer.Stop()
		sh.wr = sh.sock.bconn.NewWriter(egressBatchSize)
		ep.wg.Add(1)
		go sh.run()
	}
	for _, s := range ep.socks {
		ep.wg.Add(1)
		go ep.readLoop(s)
	}
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
			ipk := ep.decode(sock, ms[i].Buf[:ms[i].N], ms[i].Addr)
			if ipk == nil {
				continue
			}
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

// run is the shard worker. It sleeps until a packet, a control message, a
// stream kick or the deadline of the loop's earliest timer. Each wake-up
// runs the timers that are due, drains a bounded burst of queued work,
// runs what that work scheduled for right now, and only then flushes the
// egress queue — so packets arriving together, the acks they trigger and
// what the timers sent leave in one batched write — and resets the OS timer.
func (sh *shard) run() {
	defer sh.ep.wg.Done()
	defer sh.shutdown()
	defer sh.timer.Stop()
	for {
		select {
		case <-sh.ep.stop:
			return
		case m := <-sh.in:
			if m.op == opPacket {
				sh.wake(wakePacket)
			} else {
				sh.wake(wakeControl)
			}
			sh.handle(m)
		drain:
			// Bounded opportunistic drain: batch the rest of the burst
			// without starving the timers or spinning forever.
			for i := 0; i < drainBurst; i++ {
				select {
				case m := <-sh.in:
					sh.handle(m)
				default:
					break drain
				}
			}
		case <-sh.kickCh:
			sh.wake(wakeKick)
			sh.processKicks()
		case <-sh.timer.C:
			sh.wake(wakeTimer)
		}
		sh.loop.RunUntil(sh.loop.Now())
		sh.flush()
		sh.rearm()
	}
}

// wake starts a work burst: it reads the wall clock once and runs every
// timer that is due by it.
func (sh *shard) wake(cause int) {
	sh.ep.mWakeups[cause].Inc()
	vnow := sim.Time(time.Since(sh.epoch))
	if cause == wakeTimer && sh.armed != unset {
		sh.ep.mTimerLate.Observe((vnow - sh.armed).Seconds())
		sh.armed = unset
	}
	sh.loop.RunUntil(vnow)
}

// rearm sets the OS timer to the loop's earliest pending event, leaving
// it alone when that has not moved since the last burst.
func (sh *shard) rearm() {
	if n := sh.loop.Pending(); n != sh.timers {
		sh.ep.mTimers.Set(float64(sh.ep.nTimers.Add(int64(n - sh.timers))))
		sh.timers = n
	}
	at, ok := sh.loop.NextAt()
	if !ok {
		at = unset
	}
	if at == sh.armed {
		return
	}
	// A timer that fired while the shard was busy left a tick behind.
	if !sh.timer.Stop() {
		select {
		case <-sh.timer.C:
		default:
		}
	}
	if sh.armed = at; ok {
		sh.timer.Reset(time.Until(sh.wall(at)))
	}
}

// SocketCount returns the effective socket-group size: Config.Sockets
// after platform clamping (1 wherever SO_REUSEPORT is unavailable).
func (ep *Endpoint) SocketCount() int { return len(ep.socks) }

// Read-loop error backoff bounds. A persistent non-ErrClosed socket
// error (e.g. a stuck deadline, an EBADF from fd mishandling) must not
// busy-loop the reader at 100% CPU; retries back off exponentially from
// readBackoffMin to readBackoffMax and reset on the first success.
const (
	readBackoffMin = time.Millisecond
	readBackoffMax = 100 * time.Millisecond
)

// nextReadBackoff returns the delay to wait after a read error given the
// previous delay (0 = first error since a successful read).
func nextReadBackoff(prev time.Duration) time.Duration {
	if prev < readBackoffMin {
		return readBackoffMin
	}
	if prev >= readBackoffMax/2 {
		return readBackoffMax
	}
	return prev * 2
}
