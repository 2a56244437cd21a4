package endpoint

import (
	"net"
	"sync"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/transport"
)

// opKind discriminates shard control messages.
type opKind uint8

const (
	opPacket   opKind = iota // inbound datagram for this shard's conns
	opRegister               // attach a freshly dialed connection
	opClose                  // user-initiated connection close
)

// What ended a shard's sleep: the <cause> of ep.shard.wakeups.<cause>.
const (
	wakePacket = iota
	wakeKick
	wakeTimer
	wakeControl
	numWakeCauses
)

// unset marks a shard-owned time that is not set: no deadline, no
// sample yet, the OS timer disarmed. The loop's clock starts at 0, so
// unset is negative.
const unset sim.Time = -1

// shardMsg is one unit of work on a shard's channel.
type shardMsg struct {
	op   opKind
	ipk  *inPacket
	conn *Conn
}

// shard owns a partition of the endpoint's connections. The conns map and
// every connection's protocol state are touched exclusively by the
// shard's goroutine — the dispatch path is lock-free by ownership, and so
// is the egress queue: every output a connection emits lands here and is
// coalesced into one batched write per work burst.
type shard struct {
	ep *Endpoint
	// sock is the socket-group member this shard's egress is bound to:
	// every connection the shard owns replies through it
	// (reply-from-owner), regardless of which socket its inbound packets
	// arrive on.
	sock  *epSocket
	in    chan shardMsg
	conns map[uint32]*Conn

	// loop is the shard's one clock and timer heap: every engine of every
	// connection the shard owns schedules on it, every lifecycle time and
	// deadline is on it, and so is each connection's housekeeping timer.
	// The socket driver moves it to the wall time since epoch once per
	// wake-up, so one burst shares one now. Wire timestamps are relative
	// to the writing shard's epoch; peers only echo them.
	loop  *sim.Loop
	epoch time.Time
	// Socket driver state: timer, the one OS timer, is set to armed, the
	// loop's earliest event.
	timer  *time.Timer
	armed  sim.Time
	timers int // loop.Pending() as last folded into ep.shard.timers

	// Egress queue: encoded datagrams awaiting one WriteBatch on wr, the
	// driver's writer. egress and egressBufs are parallel (egressBufs keeps
	// the pool pointers so the buffers can be recycled after the flush).
	wr         batchWriter
	egress     []batchio.Message
	egressBufs []*[]byte

	// Stream-kick queue: application goroutines (stream Write/Read fired
	// from inside the mux lock) nudge the shard here. The tiny mutex plus a
	// non-blocking channel send keep the kick safe to call under any mux
	// lock: it can never block on the shard, and the shard never takes a
	// mux lock while holding kickMu.
	kickMu sync.Mutex
	kicked []*Conn
	kickCh chan struct{}
}

// batchWriter is a shard's egress: it writes a batch of datagrams and
// reports how many went, as *batchio.Writer does.
type batchWriter interface {
	WriteBatch(ms []batchio.Message) (int, error)
}

func newShard(ep *Endpoint, sock *epSocket, seed int64) *shard {
	return &shard{
		ep:         ep,
		sock:       sock,
		in:         make(chan shardMsg, shardQueue),
		conns:      map[uint32]*Conn{},
		loop:       sim.NewLoop(seed),
		armed:      unset,
		egress:     make([]batchio.Message, 0, egressBatchSize),
		egressBufs: make([]*[]byte, 0, egressBatchSize),
		kickCh:     make(chan struct{}, 1),
	}
}

// kick enqueues a connection for a stream-layer service pass on the shard
// goroutine. Callable from any goroutine, including under stream-mux locks:
// it never blocks and never re-enters connection state.
func (sh *shard) kick(c *Conn) {
	sh.kickMu.Lock()
	if !c.kickQueued {
		c.kickQueued = true
		sh.kicked = append(sh.kicked, c)
	}
	sh.kickMu.Unlock()
	select {
	case sh.kickCh <- struct{}{}:
	default: // a wakeup is already pending
	}
}

// processKicks services queued stream kicks: wake the sender's scheduler
// (new writable frames) and flush any urgent receive-window advertisement.
func (sh *shard) processKicks() {
	sh.kickMu.Lock()
	ks := sh.kicked
	sh.kicked = nil
	for _, c := range ks {
		c.kickQueued = false
	}
	sh.kickMu.Unlock()
	for _, c := range ks {
		if sh.conns[c.id] != c {
			continue // torn down since the kick was queued
		}
		if c.snd != nil {
			c.snd.Kick()
		}
		if c.rcv != nil {
			c.rcv.FlushStreamWindows()
		}
	}
}

// wall is the wall time of loop time t.
func (sh *shard) wall(t sim.Time) time.Time { return sh.epoch.Add(t.Duration()) }

// add takes ownership of a connection whose protocol half is set up:
// table entry, lifecycle clocks, housekeeping timer, first snapshot.
func (sh *shard) add(c *Conn) {
	now := sh.loop.Now()
	c.created, c.lastRecv, c.lastSent = now, now, now
	sh.conns[c.id] = c
	if d := sh.ep.driver; d != nil {
		d.changed = true
	}
	sh.ep.connAdded()
	c.hk = sim.NewTimer(sh.loop, func() { sh.housekeep(c) })
	sh.refreshSnapshot(c)
	sh.poke(c)
}

// poke has housekeep look at c before this burst ends, after a change of
// state that may have brought c's next deadline forward. (Housekeep may
// remove c, so it must not run in the middle of what caused the change.)
func (sh *shard) poke(c *Conn) { c.hk.Reset(sh.loop.Now()) }

// touch notes a packet of c, in either direction: activity is what keeps
// the periodic snapshot/anomaly pass of housekeep running.
func (sh *shard) touch(c *Conn) {
	c.lastActive = sh.loop.Now()
	if c.nextRefresh == unset {
		c.nextRefresh = sh.refreshSlot()
		sh.poke(c)
	}
}

// refreshSlot returns the next point of the shard's snapshotRefresh grid;
// on one grid, however many connections are active share a wake-up.
func (sh *shard) refreshSlot() sim.Time {
	return (sh.loop.Now()/snapshotRefresh + 1) * snapshotRefresh
}

func (sh *shard) handle(m shardMsg) {
	switch m.op {
	case opPacket:
		sh.onPacket(&m.ipk.pkt, &m.ipk.from)
		sh.ep.putPacket(m.ipk)
	case opRegister:
		sh.startDial(m.conn)
	case opClose:
		sh.closeConn(m.conn)
	}
}

// startDial builds a dialed connection's sending half on the shard's
// loop, registers the connection and sends the SYN.
func (sh *shard) startDial(c *Conn) {
	snd, err := transport.NewSender(sh.loop, c.engineConfig(), c.output)
	if err != nil {
		sh.remove(c, err)
		return
	}
	c.snd = snd
	if m := snd.Streams(); m != nil {
		// Stream writes happen on application goroutines: kick the shard.
		m.SetKick(func() { sh.kick(c) })
	}
	sh.add(c)
	snd.Start()
}

// enqueue appends one encoded datagram to the shard's egress queue,
// flushing when the batch is full. Runs only on the shard goroutine.
func (sh *shard) enqueue(p *packet.Packet, addr *net.UDPAddr) {
	bp := sh.ep.getBuf()
	*bp = p.AppendDatagram((*bp)[:0])
	sh.egress = append(sh.egress, batchio.Message{Buf: *bp, Addr: addr})
	sh.egressBufs = append(sh.egressBufs, bp)
	if len(sh.egress) >= egressBatchSize {
		sh.flush()
	}
}

// flush writes the egress queue with as few syscalls as the platform
// allows and recycles the datagram buffers. A datagram that errors (or
// leads a train that does) is counted and skipped; the rest of the batch
// still goes out.
func (sh *shard) flush() {
	if len(sh.egress) == 0 {
		return
	}
	ms := sh.egress
	sh.ep.mBatchWrite.Observe(float64(len(ms)))
	sh.sock.mBatchWrite.Observe(float64(len(ms)))
	var txErrs int64
	for sent := 0; sent < len(ms); {
		n, err := sh.wr.WriteBatch(ms[sent:])
		sent += n
		if err != nil {
			sh.ep.mTxErrors.Inc()
			txErrs++
			sent++
		}
	}
	sh.sock.mTx.Add(int64(len(ms)) - txErrs)
	// The writer left in each N how the datagram went out (batchio.Message).
	for i := range ms {
		n := ms[i].N
		if n < 0 {
			sh.ep.mGSOFallbacks.Inc()
			n = -n
		}
		if n > 0 {
			sh.ep.mTrainSize.Observe(float64(n))
		}
	}
	for _, bp := range sh.egressBufs {
		sh.ep.putBuf(bp)
	}
	sh.egress = sh.egress[:0]
	sh.egressBufs = sh.egressBufs[:0]
}

// onPacket is the demux hot path: route by ConnID, validate the source,
// dispatch into the sans-IO engine.
func (sh *shard) onPacket(p *packet.Packet, from *net.UDPAddr) {
	c := sh.conns[p.ConnID]
	if c == nil {
		sh.acceptSYN(p, from)
		return
	}
	if !addrEqual(from, c.peer) {
		// The connection is bound to its handshake-time source address: a
		// NAT rebind, a roam or a spoofer is challenged when migration is
		// enabled, else rejected, counted and traced (see migration.go).
		sh.onForeignPacket(c, p, from)
		return
	}
	c.lastRecv = sh.loop.Now()
	sh.touch(c)
	switch p.Type {
	case packet.TypePathChallenge:
		// The peer is validating this path (its view of our address
		// changed): echo the token back. Path frames never reach the
		// engines — they carry no sequence or acknowledgment state.
		sh.onPathChallenge(c, p)
		return
	case packet.TypePathResponse:
		// On-path response with no probe outstanding toward this address
		// (we only probe *foreign* addresses): stale or duplicated. Drop.
		return
	}
	if c.snd != nil {
		if a := p.Ack; a != nil && c.snd.AcksUnsent(a) {
			// Misbehaving-receiver guard: an optimistic acknowledgment
			// claims bytes or packet numbers never sent; acting on it would
			// inflate the congestion controller (receiver-driven DoS).
			sh.ep.mBadFeedback.Inc()
			return
		}
		c.snd.OnPacket(p)
	}
	if c.rcv != nil {
		c.rcv.OnPacket(p)
	}
	if c.closing && p.Type == packet.TypeFINACK {
		sh.remove(c, nil) // graceful close confirmed
		return
	}
	sh.postDispatch(c)
}

// acceptSYN creates an embryonic server connection for an unknown ConnID.
// Non-SYN packets for unknown connections are demux drops.
func (sh *shard) acceptSYN(p *packet.Packet, from *net.UDPAddr) {
	if p.Type != packet.TypeSYN {
		sh.ep.mDemuxDrops.Inc()
		return
	}
	// from aliases pooled reader storage that is recycled after dispatch;
	// the connection outlives it, so it keeps its own copy.
	c := sh.ep.newConn(cloneAddr(from))
	c.id = p.ConnID
	c.sh = sh
	if !sh.ep.reserveID(c.id, c) {
		// A live local connection already owns this id (e.g. a dialed conn
		// not yet registered); treat the SYN as unroutable.
		sh.ep.mDemuxDrops.Inc()
		return
	}
	c.rcv = transport.NewReceiver(sh.loop, c.engineConfig(), c.output)
	if m := c.rcv.Streams(); m != nil {
		// Stream reads drain per-stream windows on application
		// goroutines; route window-update wakeups through the shard.
		m.SetKick(func() { sh.kick(c) })
	}
	sh.add(c)
	c.rcv.OnPacket(p) // emits the SYNACK
}

// postDispatch advances connection lifecycle after a packet was handled:
// handshake completion (gating Accept), then transfer completion.
func (sh *shard) postDispatch(c *Conn) {
	if !c.established {
		if c.snd != nil && c.snd.Established() {
			sh.establish(c)
		} else if c.rcv != nil && c.rcv.Established() {
			sh.establish(c)
			select {
			case sh.ep.accept <- c:
				sh.ep.mAccepts.Inc()
			default:
				// Accept backlog full: shed the connection rather than
				// hold state nobody will claim.
				sh.ep.mAcceptDrops.Inc()
				sh.remove(c, ErrClosed)
				return
			}
		}
	}
	sh.checkDone(c)
}

func (sh *shard) establish(c *Conn) {
	c.established = true
	sh.ep.mHandshake.Observe((sh.loop.Now() - c.created).Seconds())
	close(c.estCh)
	sh.poke(c) // handshake deadlines out, idle and keepalive in
}

// checkDone detects transfer completion. A finished sender is removed at
// once, unless its tail probe is still in flight: then it stays until the
// probe's acknowledgment (this runs again for it) or closeLinger, so that
// acknowledgment does not arrive for an unknown connection. Receivers
// linger completeLinger so tail retransmissions still get re-acknowledged.
func (sh *shard) checkDone(c *Conn) {
	if c.closing {
		return
	}
	if c.snd != nil && c.snd.Done() {
		if !c.snd.ProbeInFlight() {
			sh.remove(c, nil)
		} else if c.closeDeadline == unset {
			c.closeDeadline = sh.loop.Now() + closeLinger
			sh.poke(c)
		}
		return
	}
	if c.rcv != nil && c.rcv.Complete() && c.completeAt == unset {
		c.completeAt = sh.loop.Now()
		c.ring.Release() // what is left is re-acknowledging the tail
		sh.poke(c)
	}
}

// housekeep is the callback of a connection's housekeeping timer: it
// applies whichever lifecycle policies have come due — close and
// completion linger, the handshake deadline, idle timeout, keepalive, the
// path-challenge schedule, and on an active connection the
// anomaly check and snapshot refresh. Having acted it looks again; else it
// sets the timer to the earliest deadline ahead. Idle and keepalive
// deadlines move later with every packet and are not chased: the timer
// fires at the old one, finds nothing due, and is set again.
func (sh *shard) housekeep(c *Conn) {
	now, cfg := sh.loop.Now(), &sh.ep.cfg
	next, acted := unset, false
	// due reports whether deadline t has come; if not, the timer may wait for it.
	due := func(t sim.Time) bool {
		if now >= t {
			return true
		}
		if next == unset || t < next {
			next = t
		}
		return false
	}
	switch {
	case c.closing, c.snd != nil && c.snd.Done():
		// The FINACK, or the acknowledgment of a finished sender's probe,
		// never came.
		if due(c.closeDeadline) {
			sh.remove(c, nil)
			return
		}
	case c.completeAt != unset:
		if due(c.completeAt + completeLinger) {
			sh.remove(c, nil)
			return
		}
	case c.established:
		if cfg.IdleTimeout > 0 && due(c.lastRecv+sim.Time(cfg.IdleTimeout)) {
			sh.ep.mReaped.Inc()
			sh.remove(c, ErrIdleTimeout)
			return
		}
		// Keepalive: a liveness-probe IACK on a transmit-idle dialed connection.
		if ka := sim.Time(cfg.KeepaliveInterval); ka > 0 && c.snd != nil && due(c.lastSent+ka) {
			c.snd.SendKeepalive()
			acted = true
		}
	default:
		// The handshake, dialed or accepted. The engines retransmit SYN and
		// SYNACK; this deadline alone ends either.
		if due(c.created + sim.Time(cfg.HandshakeTimeout)) {
			sh.ep.mReaped.Inc()
			sh.remove(c, ErrHandshakeTimeout)
			return
		}
	}
	if c.migState == pathProbing {
		if due(c.migDeadline) {
			sh.failMigration(c)
		} else if !c.migBlocked && due(c.migNext) {
			sh.sendChallenge(c)
			acted = true
		}
	}
	if c.nextRefresh != unset && due(c.nextRefresh) {
		sh.detectAnomalies(c, now)
		sh.refreshSnapshot(c)
		c.nextRefresh = unset
		// A connection quiet for longer than any detector needs to see
		// silence has nothing left to detect or to republish, and neither
		// has a receiver that is only lingering after completion.
		if c.completeAt == unset && now-c.lastActive <= sh.stallTimeout(c)+wndExhaustTimeout {
			c.nextRefresh = sh.refreshSlot()
		}
		acted = true
	}
	if acted {
		sh.poke(c)
	} else if next != unset {
		c.hk.Reset(next)
	}
}

// closeConn implements a user-initiated Close on the owning shard. A
// mid-transfer sender closes gracefully: FIN, then it stays registered,
// and unfinished, until the FINACK arrives or closeLinger passes. All
// other shapes tear down immediately.
func (sh *shard) closeConn(c *Conn) {
	if sh.conns[c.id] != c {
		c.finish(nil) // already removed (or never registered)
		return
	}
	if c.snd != nil && c.established && !c.snd.Done() && !c.closing {
		c.snd.SendFIN()
		c.closing = true
		c.closeDeadline = sh.loop.Now() + closeLinger
		sh.poke(c)
		return
	}
	sh.remove(c, nil)
}

// remove deletes the connection from the shard table (idempotent),
// publishes its last snapshot, takes everything of it off the loop,
// releases its recorder's storage and signals its terminal state.
func (sh *shard) remove(c *Conn, err error) {
	if sh.conns[c.id] == c {
		delete(sh.conns, c.id)
		sh.ep.connRemoved()
		sh.refreshSnapshot(c)
		c.hk.Stop()
		if c.snd != nil {
			c.snd.Stop()
		} else {
			c.rcv.Stop()
		}
		c.ring.Release()
	}
	sh.ep.releaseID(c.id)
	c.finish(err)
}

// shutdown finishes every connection when the endpoint closes, then
// drains queued control messages so pending Dial/Close callers unblock.
func (sh *shard) shutdown() {
	for _, c := range sh.conns {
		sh.remove(c, ErrClosed)
	}
	for {
		select {
		case m := <-sh.in:
			if m.ipk != nil {
				sh.ep.putPacket(m.ipk)
			}
			if m.conn != nil {
				sh.ep.releaseID(m.conn.id)
				m.conn.finish(ErrClosed)
			}
		default:
			return
		}
	}
}

// addrEqual compares UDP source addresses (IP + port; IPv4 and its
// v6-mapped form compare equal).
func addrEqual(a, b *net.UDPAddr) bool {
	return a != nil && b != nil && a.Port == b.Port && a.IP.Equal(b.IP)
}

// cloneAddr deep-copies a UDP address so it can outlive pooled reader
// storage.
func cloneAddr(a *net.UDPAddr) *net.UDPAddr {
	ip := make(net.IP, len(a.IP))
	copy(ip, a.IP)
	return &net.UDPAddr{IP: ip, Port: a.Port, Zone: a.Zone}
}
