package endpoint

// Endpoint-level stream multiplexing tests: many concurrent application
// goroutines writing and reading multiplexed streams over a real loopback
// socket, including a chaos soak through the netem.UDPProxy impairment
// stack (satellite of the stream-multiplexing PR).
//
// The invariants are structural:
//
//   - every stream delivers its exact byte pattern and then EOF — loss,
//     reordering and duplication must never corrupt or cross streams;
//   - no stream stalls while its siblings finish (each one completes
//     within the global deadline even under burst loss);
//   - endpoints shut down without leaking goroutines or connections.

import (
	"errors"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// streamTestPattern fills b with the deterministic per-stream byte pattern
// starting at absolute offset off (mirrors the transport-level tests).
func streamTestPattern(sid uint32, off int, b []byte) {
	for i := range b {
		x := off + i
		b[i] = byte(int(sid)*131 + x*7 + (x >> 8))
	}
}

// streamEndpointPair builds a listening server and client endpoint with
// stream multiplexing enabled and registers cleanup.
func streamEndpointPair(t *testing.T, scfg stream.Config, srvReg, cliReg *telemetry.Registry) (srv, cli *Endpoint) {
	t.Helper()
	mk := func(reg *telemetry.Registry) Config {
		return Config{
			Transport: transport.Config{
				Mode:         transport.ModeTACK,
				Streams:      &scfg,
				Metrics:      reg,
				HandshakeRTO: 50 * sim.Millisecond,
			},
			HandshakeTimeout: 15 * time.Second,
		}
	}
	srv, err := Listen("127.0.0.1:0", mk(srvReg))
	if err != nil {
		t.Fatal(err)
	}
	cli, err = Listen("127.0.0.1:0", mk(cliReg))
	if err != nil {
		t.Fatalf("client listen: %v", err)
	}
	return srv, cli
}

// runStreamExchange pushes nStreams patterned objects of the given size
// from cli to target and verifies byte-exact delivery plus EOF on every
// stream at the server. It returns the client connection (still open) and
// the accepted server connection.
func runStreamExchange(t *testing.T, srv, cli *Endpoint, target string, nStreams, size int, deadline time.Duration) (*Conn, *Conn) {
	t.Helper()

	acceptedCh := make(chan *Conn, 1)
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		sc, err := srv.AcceptTimeout(deadline)
		if err != nil {
			t.Errorf("accept conn: %v", err)
			close(acceptedCh)
			return
		}
		acceptedCh <- sc
		for i := 0; i < nStreams; i++ {
			rs, err := sc.AcceptStream(deadline)
			if err != nil {
				t.Errorf("accept stream %d: %v", i, err)
				return
			}
			readWG.Add(1)
			go func(rs *stream.RecvStream) {
				defer readWG.Done()
				got, err := io.ReadAll(rs)
				if err != nil {
					t.Errorf("stream %d read: %v", rs.ID(), err)
					return
				}
				if len(got) != size {
					t.Errorf("stream %d delivered %d bytes, want %d", rs.ID(), len(got), size)
					return
				}
				want := make([]byte, size)
				streamTestPattern(rs.ID(), 0, want)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("stream %d corrupt at offset %d: got %#x want %#x", rs.ID(), i, got[i], want[i])
						return
					}
				}
			}(rs)
		}
	}()

	c, err := cli.Dial(target)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	var writeWG sync.WaitGroup
	opened := make([]*stream.SendStream, nStreams)
	for i := 0; i < nStreams; i++ {
		ss, err := c.OpenStream()
		if err != nil {
			t.Fatalf("open stream %d: %v", i, err)
		}
		opened[i] = ss
		writeWG.Add(1)
		go func(ss *stream.SendStream) {
			defer writeWG.Done()
			buf := make([]byte, 4<<10)
			for off := 0; off < size; off += len(buf) {
				n := len(buf)
				if size-off < n {
					n = size - off
				}
				streamTestPattern(ss.ID(), off, buf[:n])
				if _, err := ss.Write(buf[:n]); err != nil {
					t.Errorf("stream %d write at %d: %v", ss.ID(), off, err)
					return
				}
			}
			ss.Close()
		}(ss)
	}
	writeWG.Wait()
	readWG.Wait()

	// Every FIN must eventually be acknowledged back to the sender so the
	// streams retire (the reader already saw EOF, so only the ack leg and
	// any tail retransmissions remain in flight).
	waitUntil := time.Now().Add(deadline)
	for _, ss := range opened {
		for !ss.Done() {
			if time.Now().After(waitUntil) {
				t.Fatalf("stream %d never fully acknowledged", ss.ID())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	sc, ok := <-acceptedCh
	if !ok {
		t.FailNow()
	}
	return c, sc
}

// TestEndpointStreamRoundTrip moves 8 concurrent streams over a clean
// loopback path and checks delivery, retirement, and teardown.
func TestEndpointStreamRoundTrip(t *testing.T) {
	before := runtime.NumGoroutine()
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv, cli := streamEndpointPair(t, stream.Default(), srvReg, cliReg)

	c, _ := runStreamExchange(t, srv, cli, srv.LocalAddr().String(), 8, 128<<10, 30*time.Second)

	if n := cliReg.Counter("stream.bytes_sent").Value(); n != 8*128<<10 {
		t.Errorf("stream.bytes_sent = %d, want %d", n, 8*128<<10)
	}
	if n := srvReg.Counter("stream.bytes_rcvd").Value(); n != 8*128<<10 {
		t.Errorf("stream.bytes_rcvd = %d, want %d", n, 8*128<<10)
	}

	c.Close()
	cli.Close()
	srv.Close()
	leakCheck(t, before)
}

// TestEndpointStreamOnPlainConnRejected checks the stream API degrades to
// a typed error on connections dialed without stream multiplexing.
func TestEndpointStreamOnPlainConnRejected(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Listen("127.0.0.1:0", Config{
		Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: 4 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if c, err := srv.AcceptTimeout(30 * time.Second); err == nil {
			c.Wait(30 * time.Second)
		}
	}()
	c, err := cli.Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenStream(); !errors.Is(err, stream.ErrStreamsDisabled) {
		t.Errorf("OpenStream on plain conn: err = %v, want ErrStreamsDisabled", err)
	}
	if _, err := c.AcceptStream(0); !errors.Is(err, stream.ErrStreamsDisabled) {
		t.Errorf("AcceptStream on plain conn: err = %v, want ErrStreamsDisabled", err)
	}
	c.Wait(30 * time.Second)
	cli.Close()
	srv.Close()
	leakCheck(t, before)
}

// TestEndpointStreamChaosSoak is the multiplexing chaos soak: 64
// concurrent streams through Gilbert–Elliott burst loss (~10% average)
// in both directions. Every stream must deliver its exact pattern, no
// stream may stall behind its siblings' losses, and the endpoints must
// shut down leak-free. Runs in the regular -race CI job; set
// TACK_CHAOS_SOAK=1 for a heavier soak.
func TestEndpointStreamChaosSoak(t *testing.T) {
	nStreams, size := 64, 16<<10
	if os.Getenv("TACK_CHAOS_SOAK") != "" {
		size = 128 << 10
	}
	before := runtime.NumGoroutine()

	burst := netem.Impairments{
		LossRate: 0.02,
		GE:       netem.GilbertElliott{PEnterBad: 0.05, PExitBad: 0.25, LossBad: 0.5},
	}
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	scfg := stream.Default()
	scfg.MaxStreams = nStreams
	scfg.RecvWindow = 64 << 10
	srv, cli := streamEndpointPair(t, scfg, srvReg, cliReg)
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{
		Target:   srv.LocalAddr().String(),
		ToServer: netem.Config{Impair: burst},
		ToClient: netem.Config{Impair: burst},
		Seed:     11,
	})
	if err != nil {
		t.Fatal(err)
	}

	c, _ := runStreamExchange(t, srv, cli, proxy.Addr().String(), nStreams, size, 120*time.Second)

	up, down := proxy.Stats()
	if up.Dropped == 0 || down.Dropped == 0 {
		t.Errorf("soak under-exercised: to-server dropped %d, to-client dropped %d", up.Dropped, down.Dropped)
	}
	if n := cliReg.Counter("snd.retransmits").Value(); n == 0 {
		t.Error("no retransmissions under burst loss — impairments not reaching the transport")
	}
	if n := srvReg.Counter("stream.bytes_rcvd").Value(); n != int64(nStreams*size) {
		t.Errorf("stream.bytes_rcvd = %d, want %d", n, nStreams*size)
	}

	c.Close()
	cli.Close()
	srv.Close()
	proxy.Close()
	if n := cli.ConnCount(); n != 0 {
		t.Errorf("client conn count %d after close, want 0", n)
	}
	if n := srv.ConnCount(); n != 0 {
		t.Errorf("server conn count %d after close, want 0", n)
	}
	t.Logf("stream soak done: %d streams × %d B; to-server %+v; to-client %+v", nStreams, size, up, down)
	leakCheck(t, before)
}
