package endpoint

// Tests of the shard's deadline-driven scheduling: every lifecycle policy
// the 1 ms tick used to poll is now a deadline on the shard loop, so each
// must still fire, and fire on time; connections that do nothing must not
// wake the shard; and a removed connection must leave nothing on the loop.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// punctual is how late a lifecycle deadline may fire.
const punctual = 50 * time.Millisecond

// onTime fails the test unless got lies within [want, want+punctual]. A
// millisecond of earliness is forgiven: the test's own clock readings
// bracket the shard's.
func onTime(t *testing.T, what string, got, want time.Duration) {
	t.Helper()
	if got < want-time.Millisecond || got > want+punctual {
		t.Errorf("%s after %v, want within %v of %v", what, got, punctual, want)
	}
}

// rawPeer is a hand-driven UDP socket standing in for a peer endpoint, so
// a test sees each packet the endpoint under test sends, and when.
type rawPeer struct {
	t  *testing.T
	uc *net.UDPConn
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	p := &rawPeer{t: t, uc: attackerSocket(t)}
	t.Cleanup(func() { p.uc.Close() })
	return p
}

func (p *rawPeer) addr() string { return p.uc.LocalAddr().String() }

func (p *rawPeer) send(to *net.UDPAddr, pkt *packet.Packet) {
	p.t.Helper()
	if _, err := p.uc.WriteToUDP(frame(pkt), to); err != nil {
		p.t.Fatal(err)
	}
}

// recv returns the next packet of the wanted type (skipping others), its
// source and its arrival time; ok is false when none arrives by deadline.
func (p *rawPeer) recv(want packet.Type, deadline time.Time) (pkt *packet.Packet, from *net.UDPAddr, at time.Time, ok bool) {
	p.t.Helper()
	buf := make([]byte, 4096)
	for {
		p.uc.SetReadDeadline(deadline)
		n, src, err := p.uc.ReadFromUDP(buf)
		at = time.Now()
		if err != nil {
			return nil, nil, at, false
		}
		body, crcOK := checkFrameCRC(buf[:n])
		if !crcOK {
			p.t.Fatalf("endpoint sent a datagram with a bad frame CRC")
		}
		pkt = &packet.Packet{}
		if err := packet.DecodeInto(pkt, body); err != nil {
			p.t.Fatalf("endpoint sent an undecodable datagram: %v", err)
		}
		if pkt.Type == want {
			return pkt, src, at, true
		}
	}
}

// accept plays the server half of a handshake against a dialing endpoint:
// it answers the first SYN with a SYNACK and returns the SYN.
func (p *rawPeer) accept() (syn *packet.Packet, from *net.UDPAddr) {
	p.t.Helper()
	syn, from, _, ok := p.recv(packet.TypeSYN, time.Now().Add(5*time.Second))
	if !ok {
		p.t.Fatal("no SYN arrived")
	}
	p.send(from, &packet.Packet{Type: packet.TypeSYNACK, ConnID: syn.ConnID,
		Ack: &packet.AckInfo{EchoDeparture: syn.SentAt, Window: 1 << 20}})
	return syn, from
}

// timersDrained waits up to a second for an endpoint's shard loops to hold
// no timer at all (the gauge is brought up to date at the end of a burst).
func timersDrained(reg *telemetry.Registry) bool {
	deadline := time.Now().Add(time.Second)
	for reg.Gauge("ep.shard.timers").Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return reg.Gauge("ep.shard.timers").Value() == 0
}

// wakeups sums an endpoint's shard wake-ups over every cause.
func wakeups(reg *telemetry.Registry) int64 {
	var n int64
	for _, cause := range []string{"packet", "kick", "timer", "control"} {
		n += reg.Counter("ep.shard.wakeups." + cause).Value()
	}
	return n
}

func TestIdleTimeoutAndKeepaliveFireOnTime(t *testing.T) {
	const idle, ka = 600 * time.Millisecond, 100 * time.Millisecond
	peer := newRawPeer(t)
	cli, err := Listen("127.0.0.1:0", Config{
		Transport:   transport.Config{Mode: transport.ModeTACK, AppPaced: true},
		IdleTimeout: idle, KeepaliveInterval: ka,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var c *Conn
	dialed := make(chan error, 1)
	go func() {
		var err error
		c, err = cli.Dial(peer.addr())
		dialed <- err
	}()
	peer.accept()
	lastRecv := time.Now() // the SYNACK is the last thing the client ever hears
	if err := <-dialed; err != nil {
		t.Fatal(err)
	}

	// Keepalives: the handshake IACK is the last transmission, so probes
	// follow it one interval apart for as long as the connection lives.
	_, _, prev, ok := peer.recv(packet.TypeIACK, time.Now().Add(time.Second))
	if !ok {
		t.Fatal("no handshake IACK arrived")
	}
	probes := 0
	for {
		pkt, _, at, ok := peer.recv(packet.TypeIACK, lastRecv.Add(idle+punctual))
		if !ok {
			break
		}
		if pkt.IACK != packet.IACKKeepalive {
			t.Fatalf("unexpected IACK kind %v on an idle connection", pkt.IACK)
		}
		onTime(t, "keepalive", at.Sub(prev), ka)
		prev = at
		probes++
	}
	if want := int(idle/ka) - 1; probes < want {
		t.Errorf("%d keepalives in %v, want at least %d", probes, idle, want)
	}

	// Keepalives are transmissions; only inbound traffic holds off the idle
	// reaper, and there has been none. The loop above read until
	// lastRecv+idle+punctual: the reap is on time only if it is done by now.
	select {
	case <-c.Done():
	default:
		t.Errorf("connection still alive %v after it last heard from its peer", time.Since(lastRecv))
	}
	if err := c.Wait(time.Second); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("err = %v, want ErrIdleTimeout", err)
	}
	if cli.ConnCount() != 0 {
		t.Fatalf("%d connections after the reap", cli.ConnCount())
	}
}

func TestIdleTimeoutFiresOnTime(t *testing.T) {
	const idle = 300 * time.Millisecond
	peer := newRawPeer(t)
	cli, err := Listen("127.0.0.1:0", Config{
		Transport:   transport.Config{Mode: transport.ModeTACK, AppPaced: true},
		IdleTimeout: idle,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	go peer.accept()
	c, err := cli.Dial(peer.addr())
	if err != nil {
		t.Fatal(err)
	}
	established := time.Now() // at most a loopback delivery after the SYNACK
	if err := c.Wait(5 * time.Second); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("err = %v, want ErrIdleTimeout", err)
	}
	onTime(t, "idle reap", time.Since(established), idle)
}

func TestEmbryoSYNACKScheduleBudgetAndReap(t *testing.T) {
	const rto, hsTimeout = 100 * time.Millisecond, 900 * time.Millisecond
	reg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, Metrics: reg,
			HandshakeRTO: sim.Time(rto), MaxSYNRetries: 2},
		HandshakeTimeout: hsTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer := newRawPeer(t)
	start := time.Now()
	peer.send(srv.LocalAddr(), &packet.Packet{Type: packet.TypeSYN, ConnID: 77, SentAt: 1})

	// The SYNACK, then retransmissions RTO and 2·RTO later, then — the
	// budget of two being spent — nothing more.
	var got []time.Duration
	for {
		_, _, at, ok := peer.recv(packet.TypeSYNACK, start.Add(hsTimeout-2*punctual))
		if !ok {
			break
		}
		got = append(got, at.Sub(start))
	}
	want := []time.Duration{0, rto, 3 * rto}
	if len(got) != len(want) {
		t.Fatalf("SYNACKs at %v, want %d of them (retry budget 2)", got, len(want))
	}
	for i := range want {
		onTime(t, "SYNACK", got[i], want[i])
	}
	if n := reg.Counter("ep.synack_retransmits").Value(); n != 2 {
		t.Errorf("ep.synack_retransmits = %d, want 2", n)
	}

	// The embryo is reaped at HandshakeTimeout, not before and not late.
	if srv.ConnCount() != 1 {
		t.Fatalf("embryo gone before HandshakeTimeout (conns=%d)", srv.ConnCount())
	}
	for srv.ConnCount() != 0 && time.Since(start) < hsTimeout+time.Second {
		time.Sleep(time.Millisecond)
	}
	onTime(t, "embryo reap", time.Since(start), hsTimeout)
	if n := reg.Counter("ep.reaped").Value(); n != 1 {
		t.Errorf("ep.reaped = %d, want 1", n)
	}
	if !timersDrained(reg) {
		t.Error("timers left on the shard loops after the only connection was reaped")
	}
}

// TestUnsetTransportTimersFollowTransport sets none of HandshakeRTO,
// MaxSYNRetries and MinRTO: the embryo's SYNACK schedule and the
// receiver-side stall threshold must then be the transport's own defaults,
// not numbers the endpoint keeps for itself.
func TestUnsetTransportTimersFollowTransport(t *testing.T) {
	cfg := Config{Transport: transport.Config{Mode: transport.ModeTACK}}.withDefaults()
	rto := time.Duration(transport.DefaultHandshakeRTO)
	for retries, want := range []time.Duration{rto, 2 * rto, 4 * rto} {
		if got := cfg.handshakeRetryRTO(retries); got != want {
			t.Errorf("embryo SYNACK timeout after %d retries = %v, want %v", retries, got, want)
		}
	}
	if got := cfg.handshakeRetryBudget(); got != transport.DefaultMaxSYNRetries {
		t.Errorf("embryo SYNACK budget = %d, want the transport's %d", got, transport.DefaultMaxSYNRetries)
	}
	sh := &shard{ep: &Endpoint{cfg: cfg}}
	want := time.Duration(cfg.StallRTOs) * time.Duration(transport.DefaultMinRTO)
	if got := sh.stallTimeout(&Conn{}); got != want {
		t.Errorf("receiver-side stall timeout = %v, want %d × the transport's minimum RTO = %v", got, cfg.StallRTOs, want)
	}
}

func TestCloseLingerFiresOnTime(t *testing.T) {
	peer := newRawPeer(t)
	reg := telemetry.NewRegistry()
	cli, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 20, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	go peer.accept()
	c, err := cli.Dial(peer.addr())
	if err != nil {
		t.Fatal(err)
	}
	// Mid-transfer, and the peer will never FINACK: the connection is torn
	// down when closeLinger runs out.
	c.Close()
	closed := time.Now()
	if err := c.Wait(time.Second); err != nil {
		t.Fatalf("graceful close reported %v", err)
	}
	if cli.ConnCount() != 1 {
		t.Fatalf("closing connection did not linger (conns=%d)", cli.ConnCount())
	}
	for cli.ConnCount() != 0 && time.Since(closed) < closeLinger+time.Second {
		time.Sleep(time.Millisecond)
	}
	onTime(t, "close-linger teardown", time.Since(closed), closeLinger)
	if !timersDrained(reg) { // its retransmission timers went with it
		t.Error("timers left on the shard loops after the connection was removed")
	}
}

// TestFinishedSenderAwaitsItsProbesAck plays a receiver that holds its
// acknowledgment back until the sender's tail loss probe has gone out, then
// acknowledges the originals: every byte is acknowledged while the probe's
// own acknowledgment is still due. The connection stays registered and Wait
// blocked until that acknowledgment arrives; then it is removed, and the
// sender's counters read after Wait already count it. (Under -race, a shard
// still driving the sender once Wait returned would be reported here.)
func TestFinishedSenderAwaitsItsProbesAck(t *testing.T) {
	const size = 4 << 10
	peer := newRawPeer(t)
	reg := telemetry.NewRegistry()
	cli, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var c *Conn
	dialed := make(chan error, 1)
	go func() {
		var err error
		c, err = cli.Dial(peer.addr())
		dialed <- err
	}()
	syn, from := peer.accept()
	if err := <-dialed; err != nil {
		t.Fatal(err)
	}

	// The originals, then the probe: the newest of them again, under a
	// fresh packet number.
	var last uint64
	var probe *packet.Packet
	for probe == nil {
		p, _, _, ok := peer.recv(packet.TypeData, time.Now().Add(5*time.Second))
		if !ok {
			t.Fatal("no tail loss probe arrived")
		}
		if p.Retrans {
			probe = p
		} else {
			last = p.PktSeq
		}
	}
	ack := func(n, largest uint64) {
		peer.send(from, &packet.Packet{Type: packet.TypeTACK, ConnID: syn.ConnID,
			Ack: &packet.AckInfo{CumAck: size, CumPktSeq: largest + 1, LargestPktSeq: largest,
				AckSeq: n, Window: 1 << 20}})
	}

	ack(1, last)
	select {
	case <-c.Done():
		t.Fatal("Wait returned while the probe's acknowledgment was still due")
	case <-time.After(50 * time.Millisecond):
	}
	if cli.ConnCount() != 1 {
		t.Fatalf("finished sender with its probe in flight not registered (conns=%d)", cli.ConnCount())
	}

	ack(2, probe.PktSeq)
	acked := time.Now()
	if err := c.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(acked); waited > punctual {
		t.Errorf("Wait returned %v after the probe's acknowledgment, want within %v", waited, punctual)
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
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 64 << 10}
	mk := func(reg *telemetry.Registry) *Endpoint {
		tc := tcfg
		tc.Metrics = reg
		ep, err := Listen("127.0.0.1:0", Config{Transport: tc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	srv, cli := mk(srvReg), mk(cliReg)
	sc, c := dialEstablished(t, srv, cli, srv.LocalAddr().String())
	if s := sc.StateSnapshot(); s == nil || s.ConnID != sc.ConnID() {
		t.Fatalf("accepted connection has no snapshot yet: %+v", s)
	}
	if err := c.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The sender is removed the moment its last byte is acknowledged, and
	// with it every timer it had on the client's shard loops. Its final
	// snapshot says how it ended.
	if s := c.StateSnapshot(); s == nil || s.BytesAcked != tcfg.TransferBytes {
		t.Errorf("final sender snapshot: %+v, want %d bytes acked", s, tcfg.TransferBytes)
	}
	if !timersDrained(cliReg) || cli.ConnCount() != 0 {
		t.Errorf("client after its only transfer: %v timers queued, %d connections; want 0, 0",
			cliReg.Gauge("ep.shard.timers").Value(), cli.ConnCount())
	}

	// The receiver lingers completeLinger past completion, then goes too.
	if err := sc.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	onTime(t, "complete-linger teardown", time.Since(sc.CompletedAt()), completeLinger)
	if s := sc.StateSnapshot(); s.BytesDelivered != tcfg.TransferBytes || s.State != "complete" {
		t.Errorf("final receiver snapshot: %+v", s)
	}
	if sc.FlightRecorder().Len() != 0 {
		t.Errorf("finished connection still holds %d recorded events", sc.FlightRecorder().Len())
	}
	if !timersDrained(srvReg) {
		t.Error("timers left on the server's shard loops after its only connection was removed")
	}
}

func TestPathChallengeScheduleAndDeadline(t *testing.T) {
	const rto = 100 * time.Millisecond
	srvReg := telemetry.NewRegistry()
	cfg := migConfig(transport.Config{Mode: transport.ModeTACK, AppPaced: true, Metrics: srvReg})
	cfg.Transport.HandshakeRTO = sim.Time(rto)
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Listen("127.0.0.1:0", migConfig(transport.Config{Mode: transport.ModeTACK, AppPaced: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, c := dialEstablished(t, srv, cli, srv.LocalAddr().String())

	// A packet for the connection from an address the server has never
	// seen, big enough that the 3× budget never blocks a challenge.
	stranger := newRawPeer(t)
	start := time.Now()
	stranger.send(srv.LocalAddr(), &packet.Packet{Type: packet.TypeData, ConnID: c.ConnID(),
		PktSeq: 1 << 20, Seq: 1 << 30, Payload: make([]byte, 1200)})

	failed := make(chan time.Duration, 1)
	go func() {
		for srvReg.Counter("ep.migration.failed").Value() == 0 && time.Since(start) < migrationTimeout+time.Second {
			time.Sleep(time.Millisecond)
		}
		failed <- time.Since(start)
	}()
	// Challenges on the handshake schedule — 0, RTO, 3·RTO, 7·RTO, … —
	// until the episode's deadline, where it fails, on time.
	var got []time.Duration
	for {
		_, _, at, ok := stranger.recv(packet.TypePathChallenge, start.Add(migrationTimeout+punctual))
		if !ok {
			break
		}
		got = append(got, at.Sub(start))
	}
	for i, want := 0, time.Duration(0); i < len(got); i++ {
		onTime(t, "PATH_CHALLENGE", got[i], want)
		want += rto << i
	}
	if len(got) < 5 {
		t.Errorf("challenges at %v, want at least 5 within %v", got, migrationTimeout)
	}
	onTime(t, "failed path validation", <-failed, migrationTimeout)
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
