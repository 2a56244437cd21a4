package endpoint

// Tests of the shard's deadline-driven scheduling: every lifecycle policy
// is a deadline on the shard loop, so each must fire at its exact virtual
// time on the sim driver; connections that do nothing must not wake a
// socket-driven shard; and a removed connection must leave nothing on the
// loop.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// punctual is how late a deadline may fire on a socket-driven shard.
const punctual = 50 * time.Millisecond

// wakeups sums an endpoint's shard wake-ups over every cause.
func wakeups(reg *telemetry.Registry) int64 {
	var n int64
	for _, cause := range []string{"packet", "kick", "timer", "control"} {
		n += reg.Counter("ep.shard.wakeups." + cause).Value()
	}
	return n
}

// drained fails the test unless nothing is left on the network's loop:
// every connection is gone, with all its timers, and the wires are idle.
func drained(t *testing.T, n *simNet) {
	t.Helper()
	n.runFor(simOWD) // what was on the wire at the removal lands
	if p := n.loop.Pending(); p != 0 {
		t.Errorf("%d events left on the loop after every connection was removed", p)
	}
}

func TestIdleTimeoutAndKeepaliveFireOnTime(t *testing.T) {
	const idle, ka = 600 * time.Millisecond, 100 * time.Millisecond
	n := newSimNet(t, 1, simWire)
	cli, _ := n.endpoint(Config{
		Transport:   transport.Config{Mode: transport.ModeTACK, AppPaced: true},
		IdleTimeout: idle, KeepaliveInterval: ka,
	})
	peer := n.peer()
	c := n.dial(cli, peer.addr)
	peer.accept()
	lastRecv := n.now() + simOWD // the SYNACK is the last thing the client ever hears

	// Keepalives are transmissions; only inbound traffic holds off the idle
	// reaper, and there has been none.
	if !n.finished(c, sim.Time(idle)+sim.Second) {
		t.Fatal("the connection was never reaped")
	}
	if at := n.now(); at != lastRecv+sim.Time(idle) {
		t.Errorf("reaped at %v, want %v: IdleTimeout after the SYNACK arrived at %v", at, lastRecv+sim.Time(idle), lastRecv)
	}
	if err := c.Err(); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("err = %v, want ErrIdleTimeout", err)
	}
	if cli.ConnCount() != 0 {
		t.Fatalf("%d connections after the reap", cli.ConnCount())
	}

	// The handshake IACK answers the SYNACK and is the last transmission,
	// so keepalives follow it one interval apart until the reap.
	iacks := peer.arrivals(packet.TypeIACK)
	if len(iacks) == 0 || iacks[0].at != lastRecv+simOWD {
		t.Fatalf("IACKs %v: want the handshake IACK at %v", iacks, lastRecv+simOWD)
	}
	for i, a := range iacks[1:] {
		if a.pkt.IACK != packet.IACKKeepalive {
			t.Fatalf("unexpected IACK kind %v on an idle connection", a.pkt.IACK)
		}
		if want := iacks[0].at + sim.Time(i+1)*sim.Time(ka); a.at != want {
			t.Errorf("keepalive %d arrived at %v, want %v", i+1, a.at, want)
		}
	}
	if got, want := len(iacks)-1, int(idle/ka)-1; got != want {
		t.Errorf("%d keepalives in %v, want %d", got, idle, want)
	}
}

func TestIdleTimeoutFiresOnTime(t *testing.T) {
	const idle = 300 * time.Millisecond
	n := newSimNet(t, 1, simWire)
	cli, _ := n.endpoint(Config{
		Transport:   transport.Config{Mode: transport.ModeTACK, AppPaced: true},
		IdleTimeout: idle,
	})
	peer := n.peer()
	c := n.dial(cli, peer.addr)
	peer.accept()
	if !n.runUntil(n.now()+sim.Second, func() bool { return closed(c.estCh) }) {
		t.Fatal("no handshake")
	}
	established := n.now() // the SYNACK's arrival, the last thing the client hears
	if !n.finished(c, sim.Time(idle)+sim.Second) {
		t.Fatal("the connection was never reaped")
	}
	if err := c.Err(); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("err = %v, want ErrIdleTimeout", err)
	}
	if got := n.now() - established; got != sim.Time(idle) {
		t.Errorf("idle reap %v after establishment, want %v", got, idle)
	}
}

func TestEmbryoSYNACKScheduleBudgetAndReap(t *testing.T) {
	const rto, hsTimeout = 100 * sim.Millisecond, 900 * time.Millisecond
	reg := telemetry.NewRegistry()
	n := newSimNet(t, 1, simWire)
	srv, srvAddr := n.endpoint(Config{
		Transport: transport.Config{Mode: transport.ModeTACK, Metrics: reg,
			HandshakeRTO: rto, MaxSYNRetries: 2},
		HandshakeTimeout: hsTimeout,
	})
	peer := n.peer()
	peer.send(srvAddr, &packet.Packet{Type: packet.TypeSYN, ConnID: 77, SentAt: 1})
	if !n.runUntil(sim.Second, func() bool { return srv.ConnCount() == 1 }) {
		t.Fatal("the SYN made no embryo")
	}
	born := n.now()

	// The embryo is reaped at HandshakeTimeout, not before and not late.
	if !n.runUntil(born+sim.Time(hsTimeout)+sim.Second, func() bool { return srv.ConnCount() == 0 }) {
		t.Fatal("the embryo was never reaped")
	}
	if got := n.now() - born; got != sim.Time(hsTimeout) {
		t.Errorf("embryo reaped %v after its SYN, want %v", got, hsTimeout)
	}
	if n := reg.Counter("ep.reaped").Value(); n != 1 {
		t.Errorf("ep.reaped = %d, want 1", n)
	}

	// The SYNACK, then retransmissions RTO and 2·RTO later, then — the
	// budget of two being spent — nothing more.
	synacks := peer.arrivals(packet.TypeSYNACK)
	want := []sim.Time{0, rto, 3 * rto}
	if len(synacks) != len(want) {
		t.Fatalf("%d SYNACKs, want %d (retry budget 2)", len(synacks), len(want))
	}
	for i := range want {
		if got := synacks[i].at - simOWD - born; got != want[i] {
			t.Errorf("SYNACK %d sent %v after the SYN, want %v", i, got, want[i])
		}
	}
	if n := reg.Counter("ep.synack_retransmits").Value(); n != 2 {
		t.Errorf("ep.synack_retransmits = %d, want 2", n)
	}
	drained(t, n)
}

// TestUnsetTransportTimersFollowTransport sets none of HandshakeRTO,
// MaxSYNRetries and MinRTO: the embryo's SYNACK schedule and the
// receiver-side stall threshold must then be the transport's own defaults,
// not numbers the endpoint keeps for itself.
func TestUnsetTransportTimersFollowTransport(t *testing.T) {
	cfg := Config{Transport: transport.Config{Mode: transport.ModeTACK}}.withDefaults()
	rto := transport.DefaultHandshakeRTO
	for retries, want := range []sim.Time{rto, 2 * rto, 4 * rto} {
		if got := cfg.handshakeRetryRTO(retries); got != want {
			t.Errorf("embryo SYNACK timeout after %d retries = %v, want %v", retries, got, want)
		}
	}
	if got := cfg.handshakeRetryBudget(); got != transport.DefaultMaxSYNRetries {
		t.Errorf("embryo SYNACK budget = %d, want the transport's %d", got, transport.DefaultMaxSYNRetries)
	}
	sh := &shard{ep: &Endpoint{cfg: cfg}}
	want := stallRTOs * transport.DefaultMinRTO
	if got := sh.stallTimeout(&Conn{}); got != want {
		t.Errorf("receiver-side stall timeout = %v, want %d × the transport's minimum RTO = %v", got, stallRTOs, want)
	}
}

// TestCloseLingerFiresOnTime closes a connection mid-transfer toward a
// peer that never sends the FINACK: the connection stays registered, and
// Wait blocked, until closeLinger runs out; then it is removed and
// finished at once. (The sim driver fails any test in which a registered
// connection's Done is closed.)
func TestCloseLingerFiresOnTime(t *testing.T) {
	n := newSimNet(t, 1, simWire)
	cli, _ := n.endpoint(Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 20},
	})
	peer := n.peer()
	c := n.dial(cli, peer.addr)
	peer.accept()
	if !n.runUntil(n.now()+sim.Second, func() bool { return closed(c.estCh) }) {
		t.Fatal("no handshake")
	}
	c.Close()
	closedAt := n.now()
	if _, ok := peer.recv(packet.TypeFIN, closedAt+sim.Second); !ok {
		t.Fatal("no FIN arrived")
	}
	if !n.finished(c, closeLinger+sim.Second) {
		t.Fatal("the closing connection was never removed")
	}
	if got := n.now() - closedAt; got != closeLinger {
		t.Errorf("close-linger teardown %v after Close, want %v", got, closeLinger)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("graceful close reported %v", err)
	}
	if cli.ConnCount() != 0 {
		t.Fatalf("%d connections after the teardown", cli.ConnCount())
	}
	drained(t, n) // its retransmission timers went with it
}

// TestFinishedSenderAwaitsItsProbesAck plays a receiver that holds its
// acknowledgment back until the sender's tail loss probe has gone out, then
// acknowledges the originals: every byte is acknowledged while the probe's
// own acknowledgment is still due. The connection stays registered and Wait
// blocked until that acknowledgment arrives; then it is removed, and the
// sender's counters read after Wait already count it.
func TestFinishedSenderAwaitsItsProbesAck(t *testing.T) {
	const size = 4 << 10
	reg := telemetry.NewRegistry()
	n := newSimNet(t, 1, simWire)
	cli, _ := n.endpoint(Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: reg},
	})
	peer := n.peer()
	c := n.dial(cli, peer.addr)
	syn := peer.accept()

	// The originals, then the probe: the newest of them again, under a
	// fresh packet number.
	var last uint64
	var probe *packet.Packet
	for probe == nil {
		a, ok := peer.recv(packet.TypeData, n.now()+5*sim.Second)
		if !ok {
			t.Fatal("no tail loss probe arrived")
		}
		if a.pkt.Retrans {
			probe = a.pkt
		} else {
			last = a.pkt.PktSeq
		}
	}
	ack := func(n, largest uint64) {
		peer.send(syn.from, &packet.Packet{Type: packet.TypeTACK, ConnID: syn.pkt.ConnID,
			Ack: &packet.AckInfo{CumAck: size, CumPktSeq: largest + 1, LargestPktSeq: largest,
				AckSeq: n, Window: 1 << 20}})
	}

	ack(1, last)
	n.runFor(50 * sim.Millisecond)
	if closed(c.doneCh) {
		t.Fatal("Wait returned while the probe's acknowledgment was still due")
	}
	if cli.ConnCount() != 1 {
		t.Fatalf("finished sender with its probe in flight not registered (conns=%d)", cli.ConnCount())
	}

	ack(2, probe.PktSeq)
	arrives := n.now() + simOWD
	if !n.finished(c, sim.Second) {
		t.Fatal("the sender was never removed")
	}
	if n.now() != arrives {
		t.Errorf("Wait returned at %v, want at the probe acknowledgment's arrival %v", n.now(), arrives)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if n := c.Sender().Stats.AcksReceived; n != 2 {
		t.Errorf("sender absorbed %d acknowledgments by Wait, want 2 (the originals', the probe's)", n)
	}
	if cli.ConnCount() != 0 {
		t.Errorf("%d connections after Wait", cli.ConnCount())
	}
	if n := reg.Counter("ep.demux_drops").Value(); n != 0 {
		t.Errorf("ep.demux_drops = %d, want 0", n)
	}
}

func TestCompleteLingerFiresOnTimeAndLeavesNoTimers(t *testing.T) {
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 64 << 10}
	n := newSimNet(t, 1, simPath)
	srv, srvAddr := n.endpoint(Config{Transport: tcfg})
	cli, _ := n.endpoint(Config{Transport: tcfg})
	sc, c := n.connect(srv, srvAddr, cli)
	if s := sc.StateSnapshot(); s == nil || s.ConnID != sc.ConnID() {
		t.Fatalf("accepted connection has no snapshot yet: %+v", s)
	}
	if !n.finished(c, 10*sim.Second) {
		t.Fatal("the sender never finished")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	// The sender is removed the moment its last byte is acknowledged. Its
	// final snapshot says how it ended.
	if s := c.StateSnapshot(); s == nil || s.BytesAcked != tcfg.TransferBytes {
		t.Errorf("final sender snapshot: %+v, want %d bytes acked", s, tcfg.TransferBytes)
	}
	if cli.ConnCount() != 0 {
		t.Errorf("client holds %d connections after its only transfer", cli.ConnCount())
	}

	// The receiver lingers completeLinger past completion, then goes too.
	if !n.finished(sc, 10*sim.Second) {
		t.Fatal("the receiver never finished")
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got := n.now() - sc.completeAt; got != completeLinger {
		t.Errorf("complete-linger teardown %v after completion, want %v", got, completeLinger)
	}
	if got, want := sc.CompletedAt(), simEpoch.Add(sc.completeAt.Duration()); !got.Equal(want) {
		t.Errorf("CompletedAt %v, want the completion's wall view %v", got, want)
	}
	if s := sc.StateSnapshot(); s.BytesDelivered != tcfg.TransferBytes || s.State != "complete" {
		t.Errorf("final receiver snapshot: %+v", s)
	}
	if held := sc.FlightRecorder().Snapshot(nil); len(held) != 0 {
		t.Errorf("finished connection still holds %d recorded events", len(held))
	}
	drained(t, n)
}

func TestPathChallengeScheduleAndDeadline(t *testing.T) {
	const rto = 100 * sim.Millisecond
	srvReg := telemetry.NewRegistry()
	n := newSimNet(t, 1, simWire)
	cfg := migConfig(transport.Config{Mode: transport.ModeTACK, AppPaced: true, Metrics: srvReg})
	cfg.Transport.HandshakeRTO = rto
	srv, srvAddr := n.endpoint(cfg)
	cli, _ := n.endpoint(migConfig(transport.Config{Mode: transport.ModeTACK, AppPaced: true}))
	_, c := n.connect(srv, srvAddr, cli)

	// A packet for the connection from an address the server has never
	// seen, big enough that the 3× budget never blocks a challenge.
	stranger := n.peer()
	stranger.send(srvAddr, &packet.Packet{Type: packet.TypeData, ConnID: c.ConnID(),
		PktSeq: 1 << 20, Seq: 1 << 30, Payload: make([]byte, 1200)})
	start := n.now() + simOWD // its arrival opens the probing episode

	if !n.runUntil(start+migrationTimeout+sim.Second, func() bool {
		return srvReg.Counter("ep.migration.failed").Value() != 0
	}) {
		t.Fatal("the path validation never failed")
	}
	if got := n.now() - start; got != migrationTimeout {
		t.Errorf("path validation failed %v after it began, want %v", got, migrationTimeout)
	}
	// Challenges on the handshake schedule — 0, RTO, 3·RTO, 7·RTO, … —
	// until the episode's deadline.
	got := stranger.arrivals(packet.TypePathChallenge)
	sent := start
	for i, a := range got {
		if a.at-simOWD != sent {
			t.Errorf("PATH_CHALLENGE %d sent at %v, want %v", i, a.at-simOWD, sent)
		}
		sent += rto << i
	}
	if len(got) != 5 { // at 0, 0.1, 0.3, 0.7 and 1.5 s; the next is due after the 3 s deadline
		t.Errorf("%d challenges within %v, want 5", len(got), migrationTimeout)
	}
}

// dialHeld dials n app-paced connections that will never send a byte.
func dialHeld(t *testing.T, srv, cli *Endpoint, n int) []*Conn {
	t.Helper()
	go func() {
		for {
			if _, err := srv.Accept(); err != nil {
				return
			}
		}
	}()
	conns := make([]*Conn, n)
	var wg sync.WaitGroup
	for d := 0; d < 8; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for i := d; i < n; i += 8 {
				c, err := cli.Dial(srv.LocalAddr().String())
				if err != nil {
					t.Errorf("dial %d: %v", i, err)
					return
				}
				conns[i] = c
			}
		}(d)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return conns
}

// A thousand established connections with nothing to say and no keepalive
// or idle deadline near must leave their shards asleep: the tick used to
// walk every one of them a thousand times a second.
func TestIdleConnectionsDoNotWakeTheShard(t *testing.T) {
	const n = 1000
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	mk := func(reg *telemetry.Registry) *Endpoint {
		ep, err := Listen("127.0.0.1:0", Config{
			Transport:     transport.Config{Mode: transport.ModeTACK, AppPaced: true, Metrics: reg},
			IdleTimeout:   -1,
			AcceptBacklog: n,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	srv, cli := mk(srvReg), mk(cliReg)
	dialHeld(t, srv, cli, n)
	if srv.ConnCount() != n || cli.ConnCount() != n {
		t.Fatalf("holding %d/%d connections, want %d each", srv.ConnCount(), cli.ConnCount(), n)
	}
	// Let the post-handshake snapshot refreshes run out, then watch.
	time.Sleep(2500 * time.Millisecond)
	const watch = 2 * time.Second
	w0 := wakeups(srvReg) + wakeups(cliReg)
	time.Sleep(watch)
	perSec := float64(wakeups(srvReg)+wakeups(cliReg)-w0) / watch.Seconds()
	if perSec >= 50 {
		t.Errorf("%d idle connections cost %.0f shard wake-ups/s, want < 50", n, perSec)
	}
	if srv.ConnCount() != n || cli.ConnCount() != n {
		t.Errorf("idle connections were lost: %d/%d left", srv.ConnCount(), cli.ConnCount())
	}
	// Quiet connections are not refreshed; their age is computed on reading.
	a := srv.StateSnapshots()
	time.Sleep(50 * time.Millisecond)
	b := srv.StateSnapshots()
	if len(a) != n || len(b) != n || !(b[0].AgeSec > a[0].AgeSec && a[0].AgeSec > 4) {
		t.Errorf("snapshots of quiet connections: %d then %d of them, ages %v then %v",
			len(a), len(b), a[0].AgeSec, b[0].AgeSec)
	}
}

// The same thousand with deadlines on: keepalives must hold every server
// half open, and the client halves — which never hear anything back — must
// all be reaped when their idle timeout comes, not a tick-walk later.
func TestIdleConnectionsAreKeptAliveAndReapedOnTime(t *testing.T) {
	const (
		n       = 1000
		ka      = 200 * time.Millisecond
		srvIdle = 800 * time.Millisecond
		cliIdle = 2 * time.Second
	)
	srvReg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Config{
		Transport:   transport.Config{Mode: transport.ModeTACK, Metrics: srvReg},
		IdleTimeout: srvIdle, AcceptBacklog: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Listen("127.0.0.1:0", Config{
		Transport:         transport.Config{Mode: transport.ModeTACK, AppPaced: true},
		KeepaliveInterval: ka, IdleTimeout: cliIdle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	conns := dialHeld(t, srv, cli, n)
	ramp := time.Since(start)

	// Every client half dies of idleness between cliIdle after the ramp
	// began and cliIdle (plus slack) after it ended ...
	for i, c := range conns {
		if err := c.Wait(cliIdle + 5*time.Second); !errors.Is(err, ErrIdleTimeout) {
			t.Fatalf("conn %d: err = %v, want ErrIdleTimeout", i, err)
		}
	}
	if got := time.Since(start); got < cliIdle || got > ramp+cliIdle+2*punctual {
		t.Errorf("last of %d idle reaps %v after the first dial, want within [%v, %v]",
			n, got, cliIdle, ramp+cliIdle+2*punctual)
	}
	// ... and until then, several server idle timeouts long, keepalives
	// held every server half open.
	if reaped := srvReg.Counter("ep.reaped").Value(); reaped != 0 {
		t.Errorf("server reaped %d connections that were being kept alive", reaped)
	}
	// Once the keepalives stop the server reaps its halves too.
	for srv.ConnCount() != 0 && time.Since(start) < ramp+cliIdle+srvIdle+time.Second {
		time.Sleep(5 * time.Millisecond)
	}
	if got := time.Since(start); srv.ConnCount() != 0 || got > ramp+cliIdle+srvIdle+2*punctual {
		t.Errorf("server still holds %d connections %v after the first dial", srv.ConnCount(), got)
	}
}

// Dial, stream writes (kicks), Close and endpoint shutdown all reach the
// shard loop from other goroutines. Run under -race.
func TestShardLoopAgainstDialKickClose(t *testing.T) {
	scfg := stream.Default()
	srv, cli := streamEndpointPair(t, scfg, nil, nil)
	go func() {
		for {
			c, err := srv.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					rs, err := c.AcceptStream(time.Second)
					if err != nil {
						return
					}
					go func() {
						buf := make([]byte, 4096)
						for {
							if _, err := rs.Read(buf); err != nil {
								return
							}
						}
					}()
				}
			}()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := make([]byte, 8<<10)
			for i := 0; i < 6; i++ {
				c, err := cli.Dial(srv.LocalAddr().String())
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				var writers sync.WaitGroup
				for s := 0; s < 3; s++ {
					writers.Add(1)
					go func() {
						defer writers.Done()
						ss, err := c.OpenStream()
						if err != nil {
							return // the connection was closed under us
						}
						ss.Write(payload)
						ss.Close()
					}()
				}
				if (g+i)%2 == 0 {
					c.Close() // while the writers are still kicking
				}
				writers.Wait()
				c.Close()
				c.StateSnapshot()
			}
		}(g)
	}
	wg.Wait()
}
