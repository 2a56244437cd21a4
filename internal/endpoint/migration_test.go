package endpoint

// Path-migration tests: the validated-migration state machine end to end
// (a proxy Rebind mid-transfer must be survived, not starved out), plus
// the adversarial properties the challenge protocol exists for — an
// off-path attacker must not extract a PATH_RESPONSE, a guessed token
// must not move the connection, and an unvalidated address must never
// receive more than 3× the bytes it sent (anti-amplification).

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// migConfig is the endpoint configuration the migration tests share:
// TACK mode with validation probing enabled. IdleTimeout must exceed the
// 3 s validation window (Listen enforces it), and stays generous so the
// only way a test passes is the migration machinery actually working.
func migConfig(tcfg transport.Config) Config {
	tcfg.HandshakeRTO = 50 * sim.Millisecond
	return Config{
		Transport:        tcfg,
		HandshakeTimeout: 15 * time.Second,
		IdleTimeout:      20 * time.Second,
		EnableMigration:  true,
	}
}

// dialEstablished spins up an accept loop and dials target, returning
// both halves of one established connection.
func dialEstablished(t *testing.T, srv, cli *Endpoint, target string) (srvConn, cliConn *Conn) {
	t.Helper()
	acceptedCh := make(chan *Conn, 1)
	go func() {
		c, err := srv.AcceptTimeout(30 * time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			close(acceptedCh)
			return
		}
		acceptedCh <- c
	}()
	c, err := cli.Dial(target)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sc, ok := <-acceptedCh
	if !ok {
		t.FailNow()
	}
	return sc, c
}

// frame encodes a packet exactly as the endpoint's socket layer would:
// codec bytes plus the CRC32-C trailer. This is what an attacker who
// knows the wire format (it is public) can synthesize.
func frame(p *packet.Packet) []byte {
	return appendFrameCRC(p.AppendMarshal(nil))
}

// attackerSocket binds a raw UDP socket on a fresh ephemeral port — an
// address the server has never seen.
func attackerSocket(t *testing.T) *net.UDPConn {
	t.Helper()
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	return uc
}

// waitCounter polls a registry counter until it reaches want or the
// deadline passes, returning the final value.
func waitCounter(reg *telemetry.Registry, name string, want int64, deadline time.Duration) int64 {
	end := time.Now().Add(deadline)
	for {
		if v := reg.Counter(name).Value(); v >= want || time.Now().After(end) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndpointMigrationRecovery is the headline invariant of this
// feature: the scenario that used to be TestEndpointMigrationRejected's
// guaranteed double ErrIdleTimeout — a proxy Rebind yanking the peer
// address mid-transfer, under the full chaos impairment profile — now
// completes, with zero idle timeouts, because the server validates the
// new address and follows it. A validated migration that limps is a
// congestion-reset or pacing regression even when it "works", so the
// delivery rate on the migrated path must also come back. The bar is a
// quarter of the pre-rebind rate: the congestion controller restarts in
// slow start and one PATH_CHALLENGE lost to the chaos profile costs a
// 250 ms retransmit interval out of a ≈ 0.5 s post-rebind window, which
// puts healthy runs at 0.44–9× (110 runs on 2 vCPUs), while a window or
// pacer stuck after the reset sits below 0.1× and the unmigrated path
// starves at 4 pkt/s.
func TestEndpointMigrationRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	size := int64(16 << 20)
	tr := telemetry.New()
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()

	srv, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, TransferBytes: size, Tracer: tr, Metrics: srvReg,
	}))
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{
		Target:   srv.LocalAddr().String(),
		ToServer: chaosImp(),
		ToClient: chaosImp(),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, TransferBytes: size, Metrics: cliReg,
	}))
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	srvConn, cliConn := dialEstablished(t, srv, cli, proxy.Addr().String())

	// Rebind once the transfer is demonstrably in flight but nowhere near
	// done: gate on the server's live data-packet counter rather than a
	// timer so the test is robust to machine speed (16 MiB is ~11700
	// payloads; 2000 in is past the handshake and the first slow start,
	// and ≳80% of the transfer still crosses the migrated path).
	if got := waitCounter(srvReg, "rcv.data_packets", 2000, 10*time.Second); got < 2000 {
		t.Fatalf("transfer never got going: %d data packets at the server", got)
	}
	rebindAt, pktsAtRebind := time.Now(), srvReg.Counter("rcv.data_packets").Value()
	if err := proxy.Rebind(); err != nil {
		t.Fatalf("rebind: %v", err)
	}

	// Both halves must complete exactly — no ErrIdleTimeout, no stall.
	if err := cliConn.Wait(60 * time.Second); err != nil {
		t.Fatalf("client conn after rebind: %v", err)
	}
	end, pktsAtEnd := time.Now(), srvReg.Counter("rcv.data_packets").Value()
	if err := srvConn.Wait(60 * time.Second); err != nil {
		t.Fatalf("server conn after rebind: %v", err)
	}
	if got := srvConn.Receiver().Delivered(); got != size {
		t.Errorf("server delivered %d bytes, want exactly %d", got, size)
	}

	pre := float64(pktsAtRebind) / rebindAt.Sub(start).Seconds()
	post := float64(pktsAtEnd-pktsAtRebind) / end.Sub(rebindAt).Seconds()
	t.Logf("delivery rate: pre-rebind %.0f pkt/s, post-rebind %.0f pkt/s (%.2fx)", pre, post, post/pre)
	if !testing.Short() && post < 0.25*pre { // wall-clock gate
		t.Errorf("post-rebind delivery rate %.0f pkt/s below a quarter of the pre-rebind rate %.0f pkt/s", post, pre)
	}

	if probes := srvReg.Counter("ep.migration.probes").Value(); probes == 0 {
		t.Error("ep.migration.probes = 0: the rebind never triggered a challenge")
	}
	if done := srvReg.Counter("ep.migration.completed").Value(); done == 0 {
		t.Error("ep.migration.completed = 0: transfer finished without a validated migration?")
	}
	if failed := srvReg.Counter("ep.migration.failed").Value(); failed != 0 {
		t.Errorf("ep.migration.failed = %d, want 0", failed)
	}
	found := false
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindMigrationCompleted && e.Flow == cliConn.ConnID() {
			found = true
			break
		}
	}
	if !found {
		t.Error("no migration_completed trace event recorded for the connection")
	}

	cli.Close()
	srv.Close()
	proxy.Close()
	leakCheck(t, before)
}

// TestEndpointMigrationSpoofedChallenge: an off-path attacker who knows
// the ConnID injects a PATH_CHALLENGE from its own address. The endpoint
// answers challenges only toward the bound peer — echoing tokens to
// arbitrary sources would make it a path-validation oracle — so the
// attacker must never see a PATH_RESPONSE (probing its address with our
// own challenge is fine; that reveals nothing).
func TestEndpointMigrationSpoofedChallenge(t *testing.T) {
	before := runtime.NumGoroutine()
	srvReg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, Metrics: srvReg,
	}))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, TransferBytes: 1 << 40,
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, cliConn := dialEstablished(t, srv, cli, srv.LocalAddr().String())

	atk := attackerSocket(t)
	defer atk.Close()
	spoofed := frame(&packet.Packet{
		Type: packet.TypePathChallenge, ConnID: cliConn.ConnID(),
		SentAt: 1, Token: 0xdeadbeefcafef00d,
	})
	if _, err := atk.WriteToUDP(spoofed, srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	// Drain everything the server says to the attacker for a while: the
	// retransmit schedule fires several challenges in this window, so a
	// response bug would be caught, not raced past.
	atk.SetReadDeadline(time.Now().Add(1500 * time.Millisecond))
	buf := make([]byte, 2048)
	for {
		n, _, err := atk.ReadFromUDP(buf)
		if err != nil {
			break // deadline
		}
		enc, ok := checkFrameCRC(buf[:n])
		if !ok {
			t.Errorf("server sent a datagram failing its own frame CRC")
			continue
		}
		var p packet.Packet
		if err := packet.DecodeInto(&p, enc); err != nil {
			t.Errorf("server sent undecodable datagram: %v", err)
			continue
		}
		if p.Type == packet.TypePathResponse {
			t.Fatalf("server echoed PATH_RESPONSE (token %#x) to an off-path address", p.Token)
		}
	}
	// The spoofed challenge should have opened a (doomed) probe, proving
	// the packet reached the migration machinery and not some drop path.
	if probes := srvReg.Counter("ep.migration.probes").Value(); probes == 0 {
		t.Error("spoofed challenge never reached the path-validation machinery")
	}

	cli.Close()
	srv.Close()
	leakCheck(t, before)
}

// TestEndpointMigrationWrongToken: the attacker triggers a probe, reads
// the real PATH_CHALLENGE off the wire, and answers with a corrupted
// token — the one thing it cannot forge. The connection must not move:
// the episode times out into the rejected latch and the legitimate
// transfer keeps running.
func TestEndpointMigrationWrongToken(t *testing.T) {
	before := runtime.NumGoroutine()
	srvReg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, Metrics: srvReg,
	}))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, TransferBytes: 1 << 40,
	}))
	if err != nil {
		t.Fatal(err)
	}
	srvConn, cliConn := dialEstablished(t, srv, cli, srv.LocalAddr().String())

	atk := attackerSocket(t)
	defer atk.Close()
	// A plausible on-path-looking frame from a new address: a keepalive
	// IACK with the right ConnID. This opens the probing episode.
	bait := frame(&packet.Packet{
		Type: packet.TypeIACK, ConnID: cliConn.ConnID(),
		SentAt: 1, IACK: packet.IACKKeepalive,
	})
	if _, err := atk.WriteToUDP(bait, srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	// Capture the challenge and answer it with a flipped token.
	atk.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2048)
	answered := false
	for !answered {
		n, _, err := atk.ReadFromUDP(buf)
		if err != nil {
			t.Fatal("never received a PATH_CHALLENGE to answer")
		}
		enc, ok := checkFrameCRC(buf[:n])
		if !ok {
			continue
		}
		var p packet.Packet
		if err := packet.DecodeInto(&p, enc); err != nil || p.Type != packet.TypePathChallenge {
			continue
		}
		forged := frame(&packet.Packet{
			Type: packet.TypePathResponse, ConnID: cliConn.ConnID(),
			SentAt: 1, Token: p.Token ^ 1,
		})
		if _, err := atk.WriteToUDP(forged, srv.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		answered = true
	}

	// The episode must die at its deadline, never validating.
	if got := waitCounter(srvReg, "ep.migration.failed", 1, 6*time.Second); got == 0 {
		t.Error("probing episode never failed after a wrong-token response")
	}
	if done := srvReg.Counter("ep.migration.completed").Value(); done != 0 {
		t.Fatalf("connection migrated on a forged token (completed=%d)", done)
	}
	// And the real path was never disturbed: the server's view of the
	// connection still shows zero migrations and a latched-rejected
	// candidate, while the transfer is still alive.
	if s := srvConn.StateSnapshot(); s != nil {
		if s.Migrations != 0 {
			t.Errorf("snapshot shows %d migrations, want 0", s.Migrations)
		}
		if s.PathState != "rejected" {
			t.Errorf("snapshot path_state = %q, want rejected", s.PathState)
		}
	}
	if srvConn.Err() != nil {
		t.Errorf("server conn died during the attack: %v", srvConn.Err())
	}

	cli.Close()
	srv.Close()
	leakCheck(t, before)
}

// TestEndpointMigrationReplayedResponse: a PATH_RESPONSE arriving from a
// new address when no challenge is outstanding (a replay from an old
// episode, or a blind guess) proves nothing and must take the reject
// path — it must not even open a probe.
func TestEndpointMigrationReplayedResponse(t *testing.T) {
	before := runtime.NumGoroutine()
	srvReg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, Metrics: srvReg,
	}))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, TransferBytes: 1 << 40,
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, cliConn := dialEstablished(t, srv, cli, srv.LocalAddr().String())

	atk := attackerSocket(t)
	defer atk.Close()
	replay := frame(&packet.Packet{
		Type: packet.TypePathResponse, ConnID: cliConn.ConnID(),
		SentAt: 1, Token: 0x1122334455667788,
	})
	if _, err := atk.WriteToUDP(replay, srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	if got := waitCounter(srvReg, "ep.migration_rejected", 1, 5*time.Second); got == 0 {
		t.Fatal("replayed PATH_RESPONSE was not rejected")
	}
	if probes := srvReg.Counter("ep.migration.probes").Value(); probes != 0 {
		t.Errorf("replayed PATH_RESPONSE opened a probe (probes=%d), want reject only", probes)
	}

	cli.Close()
	srv.Close()
	leakCheck(t, before)
}

// TestEndpointMigrationAmplificationBudget: a single small spoofed frame
// from an address that then goes silent must never extract more than 3×
// its own bytes from the server (RFC 9000 §8.1) — the retransmit
// schedule would otherwise happily keep firing challenges at a victim
// who never asked for them.
func TestEndpointMigrationAmplificationBudget(t *testing.T) {
	before := runtime.NumGoroutine()
	srvReg := telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, Metrics: srvReg,
	}))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", migConfig(transport.Config{
		Mode: transport.ModeTACK, TransferBytes: 1 << 40,
	}))
	if err != nil {
		t.Fatal(err)
	}
	_, cliConn := dialEstablished(t, srv, cli, srv.LocalAddr().String())

	atk := attackerSocket(t)
	defer atk.Close()
	bait := frame(&packet.Packet{
		Type: packet.TypeIACK, ConnID: cliConn.ConnID(),
		SentAt: 1, IACK: packet.IACKKeepalive,
	})
	if _, err := atk.WriteToUDP(bait, srv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sent := len(bait)

	// Count every byte the server sends back across the whole probing
	// episode (3 s deadline) plus slack for the failure latch.
	atk.SetReadDeadline(time.Now().Add(4 * time.Second))
	buf := make([]byte, 2048)
	recvd := 0
	for {
		n, _, err := atk.ReadFromUDP(buf)
		if err != nil {
			break // deadline
		}
		recvd += n
	}
	if recvd > 3*sent {
		t.Fatalf("amplification: attacker sent %d bytes, server answered with %d (> 3× budget %d)",
			sent, recvd, 3*sent)
	}
	if recvd == 0 {
		t.Error("no challenge reached the attacker: the budget test exercised nothing")
	}
	if got := waitCounter(srvReg, "ep.migration.failed", 1, 3*time.Second); got == 0 {
		t.Error("silent candidate was never rejected after the validation window")
	}

	cli.Close()
	srv.Close()
	leakCheck(t, before)
}
