package endpoint

// Chaos soak harness: endpoints driven through a netem.UDPProxy that
// injects Gilbert–Elliott burst loss, independent loss, duplication, bit
// corruption, reordering and jitter into live datagrams. The invariants
// are structural, not statistical:
//
//   - every transfer completes exactly (sender fully acked, receiver
//     delivered exactly TransferBytes — corrupted packets must never
//     inflate or hole the stream accounting; the frame CRC rejects them
//     at the read loop, so corruption degrades to loss);
//   - no connection or goroutine leaks once the endpoints close;
//   - failure modes terminate (ErrHandshakeTimeout / ErrIdleTimeout /
//     ErrClosed) rather than hang.
//
// The quick variant below runs in the regular -race CI job. Set
// TACK_CHAOS_SOAK=1 for a longer, heavier soak.

import (
	"errors"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// chaosImp is the default adversarial profile: ~6% average loss (bursty),
// plus duplication, corruption, reordering and jitter in both directions.
func chaosImp() netem.Impairments {
	return netem.Impairments{
		LossRate:      0.02,
		DuplicateRate: 0.03,
		CorruptRate:   0.02,
		ReorderRate:   0.05,
		ReorderDelay:  2 * sim.Millisecond,
		JitterMax:     3 * sim.Millisecond,
		GE:            netem.GilbertElliott{PEnterBad: 0.02, PExitBad: 0.3, LossBad: 0.7},
	}
}

// leakCheck asserts the goroutine count returns to its pre-test baseline.
func leakCheck(t *testing.T, before int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestEndpointChaosSoak pushes N concurrent transfers through the full
// impairment stack and checks every structural invariant.
func TestEndpointChaosSoak(t *testing.T) {
	nConns, size := 8, int64(64<<10)
	if os.Getenv("TACK_CHAOS_SOAK") != "" {
		nConns, size = 24, int64(512<<10)
	}
	before := runtime.NumGoroutine()

	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: srvReg,
			HandshakeRTO: 50 * sim.Millisecond},
		HandshakeTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{
		Target:   srv.LocalAddr().String(),
		ToServer: netem.Config{Impair: chaosImp()},
		ToClient: netem.Config{Impair: chaosImp()},
		Seed:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size, Metrics: cliReg,
			HandshakeRTO: 50 * sim.Millisecond},
		HandshakeTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Collect accepted server conns and verify exact delivery once each
	// finishes. Corrupted SYNs can spawn spurious embryos with flipped
	// ConnIDs — those never complete a handshake and never reach Accept,
	// so counting accepted conns up to nConns is still deterministic.
	var acceptWG sync.WaitGroup
	acceptWG.Add(1)
	go func() {
		defer acceptWG.Done()
		for i := 0; i < nConns; i++ {
			c, err := srv.AcceptTimeout(60 * time.Second)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			acceptWG.Add(1)
			go func(c *Conn) {
				defer acceptWG.Done()
				if err := c.Wait(120 * time.Second); err != nil {
					t.Errorf("server conn %d: %v", c.ConnID(), err)
					return
				}
				if got := c.Receiver().Delivered(); got != size {
					t.Errorf("server conn %d delivered %d bytes, want exactly %d", c.ConnID(), got, size)
				}
			}(c)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := cli.Dial(proxy.Addr().String())
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			if err := c.Wait(120 * time.Second); err != nil {
				t.Errorf("client conn %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	acceptWG.Wait()

	// The harness must actually have been adversarial.
	up, down := proxy.Stats()
	for _, dir := range []struct {
		name string
		s    netem.Stats
	}{{"to-server", up}, {"to-client", down}} {
		if dir.s.Dropped == 0 || dir.s.Duplicated == 0 || dir.s.Corrupted == 0 || dir.s.Reordered == 0 {
			t.Errorf("%s direction under-exercised: %+v", dir.name, dir.s)
		}
	}
	// And the frame CRC must have been what kept the corruption out of
	// the engines: every forwarded-corrupted datagram fails it.
	if rc := srvReg.Counter("ep.rx_corrupt").Value() + cliReg.Counter("ep.rx_corrupt").Value(); rc == 0 {
		t.Errorf("rx_corrupt = 0 with %d corrupted datagrams forwarded", up.Corrupted+down.Corrupted)
	}

	cli.Close()
	srv.Close()
	proxy.Close()
	if n := cli.ConnCount(); n != 0 {
		t.Errorf("client conn count %d after close, want 0", n)
	}
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("server conn count %d after close, want 0", n)
	}
	t.Logf("soak done: %d conns × %d B; to-server %+v; to-client %+v", nConns, size, up, down)
	t.Logf("server: rx_corrupt=%d rx_garbage=%d demux_drops=%d bad_feedback=%d synack_retx=%d",
		srvReg.Counter("ep.rx_corrupt").Value(), srvReg.Counter("ep.rx_garbage").Value(),
		srvReg.Counter("ep.demux_drops").Value(), srvReg.Counter("ep.bad_feedback").Value(),
		srvReg.Counter("rcv.synack_retransmits").Value())
	t.Logf("client: syn_retx=%d rx_corrupt=%d rx_garbage=%d",
		cliReg.Counter("snd.syn_retransmits").Value(), cliReg.Counter("ep.rx_corrupt").Value(),
		cliReg.Counter("ep.rx_garbage").Value())
	leakCheck(t, before)
}

// TestEndpointHandshakeUnder30PctLoss drives the handshake through 30%
// symmetric loss — each SYN↔SYNACK round trip survives with p≈0.49 — and
// requires the retry/backoff schedule to land it anyway, then the transfer
// to complete.
func TestEndpointHandshakeUnder30PctLoss(t *testing.T) {
	before := runtime.NumGoroutine()
	size := int64(16 << 10)
	reg := telemetry.NewRegistry()

	srv, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size,
			HandshakeRTO: 30 * sim.Millisecond},
		HandshakeTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{
		Target:   srv.LocalAddr().String(),
		ToServer: netem.Config{Impair: netem.Impairments{LossRate: 0.3}},
		ToClient: netem.Config{Impair: netem.Impairments{LossRate: 0.3}},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{
			Mode: transport.ModeTACK, TransferBytes: size, Metrics: reg,
			// Cap the doubling at 500ms so the 30s deadline buys ~60
			// attempts; the chance 30% symmetric loss defeats them all is
			// negligible (0.51^60).
			MaxRTO:       500 * sim.Millisecond,
			HandshakeRTO: 30 * sim.Millisecond,
		},
		HandshakeTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		if c, err := srv.AcceptTimeout(60 * time.Second); err == nil {
			c.Wait(120 * time.Second)
		}
	}()

	start := time.Now()
	c, err := cli.Dial(proxy.Addr().String())
	if err != nil {
		t.Fatalf("dial under 30%% loss: %v (after %v, %d SYN retransmits)",
			err, time.Since(start), reg.Counter("snd.syn_retransmits").Value())
	}
	if err := c.Wait(120 * time.Second); err != nil {
		t.Fatalf("transfer under 30%% loss: %v", err)
	}
	t.Logf("handshake+transfer under 30%% symmetric loss in %v (%d SYN retransmits)",
		time.Since(start), reg.Counter("snd.syn_retransmits").Value())

	cli.Close()
	srv.Close()
	proxy.Close()
	leakCheck(t, before)
}

// TestEndpointMigrationRejected rebinds the proxy's server-facing socket
// mid-transfer: the server must observably reject the migrated traffic
// (ep.migration_rejected + trace event), and both sides must terminate
// with an error rather than hang.
func TestEndpointMigrationRejected(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := telemetry.New()
	reg := telemetry.NewRegistry()

	srv, err := Listen("127.0.0.1:0", Config{
		Transport:   transport.Config{Mode: transport.ModeTACK, Tracer: tr, Metrics: reg},
		IdleTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{Target: srv.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	// An effectively unbounded transfer (the rebind interrupts it long
	// before completion).
	cli, err := Listen("127.0.0.1:0", Config{
		Transport:   transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 40},
		IdleTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

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

	c, err := cli.Dial(proxy.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	srvConn, ok := <-acceptedCh
	if !ok {
		t.FailNow()
	}
	// Let the transfer run, then yank the path out from under it.
	time.Sleep(200 * time.Millisecond)
	if err := proxy.Rebind(); err != nil {
		t.Fatalf("rebind: %v", err)
	}

	// The server keeps receiving the client's data — from the new source
	// address — and must reject every packet, observably.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("ep.migration_rejected").Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := reg.Counter("ep.migration_rejected").Value(); n == 0 {
		t.Fatal("ep.migration_rejected never incremented after rebind")
	}

	// Both sides must fail terminally (idle timeout: no valid traffic
	// flows in either direction anymore) — never hang.
	if err := c.Wait(30 * time.Second); !errors.Is(err, ErrIdleTimeout) {
		t.Errorf("client conn err = %v, want ErrIdleTimeout", err)
	}
	if err := srvConn.Wait(30 * time.Second); !errors.Is(err, ErrIdleTimeout) {
		t.Errorf("server conn err = %v, want ErrIdleTimeout", err)
	}

	found := false
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindMigrationRejected && e.Flow == c.ConnID() {
			found = true
			break
		}
	}
	if !found {
		t.Error("no migration_rejected trace event recorded for the connection")
	}

	cli.Close()
	srv.Close()
	proxy.Close()
	leakCheck(t, before)
}
