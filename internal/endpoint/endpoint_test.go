package endpoint

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/seqspace"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// TestUDPRunnerLoopbackTransfer exercises the sans-IO engine over real UDP
// sockets on loopback: a bounded TACK-mode stream must complete and deliver
// every byte. (Migrated from the old transport.UDPRunner to the
// options-based constructor.)
func TestUDPRunnerLoopbackTransfer(t *testing.T) {
	const size = 256 << 10
	cfgR := transport.Config{Mode: transport.ModeTACK, TransferBytes: size}
	rcv, err := NewUDPRunner(cfgR, RoleReceiver, WithLocalAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()

	cfgS := transport.Config{Mode: transport.ModeTACK, TransferBytes: size, CC: "cubic"}
	snd, err := NewUDPRunner(cfgS, RoleSender, WithLocalAddr("127.0.0.1:0"), WithPeer(rcv.LocalAddr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var rcvErr error
	go func() {
		defer wg.Done()
		rcvErr = rcv.Run(20 * time.Second)
	}()
	if err := snd.Run(20 * time.Second); err != nil {
		t.Fatalf("sender: %v", err)
	}
	wg.Wait()
	if rcvErr != nil {
		t.Fatalf("receiver: %v", rcvErr)
	}
	if got := rcv.Receiver.Delivered(); got != size {
		t.Fatalf("delivered %d, want %d", got, size)
	}
	if !snd.Sender.Done() {
		t.Fatal("sender did not finish")
	}
}

// TestUDPRunnerLegacyMode runs the same loopback transfer in legacy mode,
// through the options-based constructor.
func TestUDPRunnerLegacyMode(t *testing.T) {
	const size = 128 << 10
	cfg := transport.Config{Mode: transport.ModeLegacy, TransferBytes: size}
	rcv, err := NewUDPRunner(cfg, RoleReceiver, WithLocalAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	snd, err := NewUDPRunner(cfg, RoleSender,
		WithLocalAddr("127.0.0.1:0"), WithPeer(rcv.LocalAddr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	go rcv.Run(20 * time.Second)
	if err := snd.Run(20 * time.Second); err != nil {
		t.Fatalf("sender: %v", err)
	}
	if !snd.Sender.Done() {
		t.Fatal("sender did not finish")
	}
}

func TestUDPRunnerBadAddrs(t *testing.T) {
	if _, err := NewUDPRunner(transport.Config{}, RoleReceiver, WithLocalAddr("not-an-addr")); err == nil {
		t.Fatal("bad local addr should error")
	}
	if _, err := NewUDPRunner(transport.Config{}, RoleSender,
		WithLocalAddr("127.0.0.1:0"), WithPeer("also-bad")); err == nil {
		t.Fatal("bad remote addr should error")
	}
	if _, err := NewUDPRunner(transport.Config{}, RoleSender); err == nil {
		t.Fatal("sender without peer should error")
	}
}

// TestEndpointMultiTransfer drives several concurrent bounded transfers
// between two endpoints over one UDP socket pair, demultiplexed by
// ConnID, and verifies every stream delivers in full.
func TestEndpointMultiTransfer(t *testing.T) {
	const (
		nConns = 6
		size   = 128 << 10
	)
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: size}
	srv, err := Listen("127.0.0.1:0", Config{Transport: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Listen("127.0.0.1:0", Config{Transport: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	accepted := make(chan *Conn, nConns)
	go func() {
		defer wg.Done()
		for i := 0; i < nConns; i++ {
			c, err := srv.AcceptTimeout(10 * time.Second)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			accepted <- c
		}
	}()

	conns := make([]*Conn, nConns)
	for i := range conns {
		c, err := cli.Dial(srv.LocalAddr().String())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns[i] = c
	}
	seen := map[uint32]bool{}
	for _, c := range conns {
		if seen[c.ConnID()] {
			t.Fatalf("duplicate ConnID %d", c.ConnID())
		}
		seen[c.ConnID()] = true
		if err := c.Wait(20 * time.Second); err != nil {
			t.Fatalf("conn %d: %v", c.ConnID(), err)
		}
		if !c.Sender().Done() {
			t.Fatalf("conn %d: sender not done", c.ConnID())
		}
	}
	wg.Wait()
	close(accepted)
	for c := range accepted {
		if err := c.Wait(20 * time.Second); err != nil {
			t.Fatalf("server conn %d: %v", c.ConnID(), err)
		}
		if got := c.Receiver().Delivered(); got != size {
			t.Fatalf("server conn %d delivered %d, want %d", c.ConnID(), got, size)
		}
	}
}

// TestEndpointHandshakeTimeout dials a socket that never answers. The SYN
// is retransmitted on the handshake backoff schedule, but with no SYNACK
// ever arriving the dial must still fail with ErrHandshakeTimeout —
// whichever of the deadline or the retry budget trips first.
func TestEndpointHandshakeTimeout(t *testing.T) {
	// A bound but never-read socket: SYNs vanish into its receive queue.
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()

	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 10}
	ep, err := Listen("127.0.0.1:0", Config{Transport: tcfg, HandshakeTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	start := time.Now()
	if _, err := ep.Dial(hole.LocalAddr().String()); !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("err = %v, want ErrHandshakeTimeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("handshake timeout took %v", d)
	}
	if ep.ConnCount() != 0 {
		t.Fatalf("conn count %d after failed dial, want 0", ep.ConnCount())
	}
}

// TestEndpointHandshakeRetryBudget makes the retry budget, not the
// deadline, the terminating authority: with a tiny HandshakeRTO and a
// 3-retry budget the dial must fail in well under the generous
// HandshakeTimeout, and must actually have retransmitted.
func TestEndpointHandshakeRetryBudget(t *testing.T) {
	hole, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()

	reg := telemetry.NewRegistry()
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 10, Metrics: reg,
		HandshakeRTO: 20 * sim.Millisecond, MaxSYNRetries: 3}
	ep, err := Listen("127.0.0.1:0", Config{
		Transport:        tcfg,
		HandshakeTimeout: 30 * time.Second, // deliberately not the limiter
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	start := time.Now()
	if _, err := ep.Dial(hole.LocalAddr().String()); !errors.Is(err, ErrHandshakeTimeout) {
		t.Fatalf("err = %v, want ErrHandshakeTimeout", err)
	}
	// Budget: 20+40+80 ms of backoff plus scheduling slack — nowhere near
	// the 30 s deadline.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("budget-exhausted dial took %v, deadline must not be the limiter", d)
	}
	if got := reg.Counter("snd.syn_retransmits").Value(); got != 3 {
		t.Fatalf("snd.syn_retransmits = %d, want 3", got)
	}
	if ep.ConnCount() != 0 {
		t.Fatalf("conn count %d after failed dial, want 0", ep.ConnCount())
	}
}

// TestEndpointIdleReap establishes an app-paced connection that then goes
// silent: the dialing side must reap it with ErrIdleTimeout.
func TestEndpointIdleReap(t *testing.T) {
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 10}
	srv, err := Listen("127.0.0.1:0", Config{Transport: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The client sends nothing after the handshake (app-paced source with
	// no bytes), so no acknowledgments ever flow back.
	cliT := transport.Config{Mode: transport.ModeTACK, AppPaced: true}
	cli, err := Listen("127.0.0.1:0", Config{Transport: cliT, IdleTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	c, err := cli.Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(5 * time.Second); !errors.Is(err, ErrIdleTimeout) {
		t.Fatalf("err = %v, want ErrIdleTimeout", err)
	}
}

// TestEndpointKeepalive verifies that KeepaliveInterval defeats the
// peer-side silence: the dialed connection keeps transmitting liveness
// probes, so its own idle reaper (keyed on inbound traffic) still fires —
// but the server has seen recent packets and holds its half open.
func TestEndpointKeepalive(t *testing.T) {
	reg := telemetry.NewRegistry()
	srvT := transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 10, Metrics: reg}
	srv, err := Listen("127.0.0.1:0", Config{Transport: srvT, IdleTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cliT := transport.Config{Mode: transport.ModeTACK, AppPaced: true}
	cli, err := Listen("127.0.0.1:0", Config{Transport: cliT, KeepaliveInterval: 50 * time.Millisecond, IdleTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	c, err := cli.Dial(srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := srv.AcceptTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Outlive the server's idle timeout: keepalives must hold it open.
	time.Sleep(time.Second)
	select {
	case <-sc.Done():
		t.Fatalf("server conn reaped despite keepalives: %v", sc.Err())
	default:
	}
	if reaped := reg.Counter("ep.reaped").Value(); reaped != 0 {
		t.Fatalf("server reaped %d conns, want 0", reaped)
	}
	c.Close()
}

// TestEndpointDemuxDrops sends a datagram for an unknown connection (and
// one garbage datagram) and checks the counters.
func TestEndpointDemuxDrops(t *testing.T) {
	reg := telemetry.NewRegistry()
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 10, Metrics: reg}
	ep, err := Listen("127.0.0.1:0", Config{Transport: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	sock, err := net.DialUDP("udp", nil, ep.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	// A DATA packet for a connection that was never opened: droppable.
	// (The datagram must carry a valid frame CRC to get past the read
	// loop's corruption check and reach demux.)
	stray := &packet.Packet{Type: packet.TypeData, ConnID: 4242, Payload: []byte("x")}
	sock.Write(appendFrameCRC(stray.AppendMarshal(nil)))
	sock.Write([]byte{0xFF, 0xFF, 0xFF})                                 // not a packet at all
	sock.Write(append(stray.AppendMarshal(nil), 0xDE, 0xAD, 0xBE, 0xEF)) // bad frame CRC

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("ep.demux_drops").Value() >= 1 &&
			reg.Counter("ep.rx_garbage").Value() >= 1 &&
			reg.Counter("ep.rx_corrupt").Value() >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("demux_drops=%d rx_garbage=%d rx_corrupt=%d, want >= 1 each",
		reg.Counter("ep.demux_drops").Value(), reg.Counter("ep.rx_garbage").Value(),
		reg.Counter("ep.rx_corrupt").Value())
}

// TestEndpointDropsAckForUnsentPacketNumber: a well-framed TACK claiming
// packet numbers the sender never used (here 2⁶² of them) costs one
// ep.bad_feedback increment — no shard time, no released data.
func TestEndpointDropsAckForUnsentPacketNumber(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := newSimNet(t, 1, simWire)
	cli, _ := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK, Metrics: reg}})
	peer := n.peer()
	c := n.dial(cli, peer.addr)
	peer.accept()
	data, ok := peer.recv(packet.TypeData, n.now()+sim.Second)
	if !ok {
		t.Fatal("no DATA arrived")
	}
	hostile := &packet.Packet{Type: packet.TypeTACK, ConnID: data.pkt.ConnID, Ack: &packet.AckInfo{
		LargestPktSeq: 1 << 62, CumPktSeq: 1 << 62, Window: 1 << 20,
		UnackedBlocks: []seqspace.Range{{Lo: 0, Hi: 1 << 62}},
	}}
	if err := hostile.Sane(); err != nil {
		t.Fatalf("the hostile TACK must be well framed: %v", err)
	}
	peer.send(data.from, hostile)
	arrives := n.now() + simOWD
	if !n.runUntil(arrives, func() bool { return reg.Counter("ep.bad_feedback").Value() != 0 }) {
		t.Fatal("the hostile TACK was not counted")
	}
	if n.now() != arrives {
		t.Errorf("ep.bad_feedback counted at %v, want at the TACK's arrival %v", n.now(), arrives)
	}
	if v := reg.Counter("ep.bad_feedback").Value(); v != 1 {
		t.Fatalf("ep.bad_feedback = %d, want 1", v)
	}
	if c.snd.CumAcked() != 0 || c.snd.Inflight() == 0 {
		t.Fatalf("the dropped TACK released data: CumAcked %d, Inflight %d", c.snd.CumAcked(), c.snd.Inflight())
	}
}

// TestEndpointAcceptTimeout covers the accept deadline and closed-endpoint
// paths.
func TestEndpointAcceptTimeout(t *testing.T) {
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 10}
	ep, err := Listen("127.0.0.1:0", Config{Transport: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.AcceptTimeout(30 * time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	ep.Close()
	if _, err := ep.Accept(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := ep.Dial("127.0.0.1:9"); !errors.Is(err, ErrClosed) {
		t.Fatalf("dial err = %v, want ErrClosed", err)
	}
}

// TestEndpointRejectsBadConfig verifies transport config validation runs
// at Listen time.
func TestEndpointRejectsBadConfig(t *testing.T) {
	bad := transport.Config{Mode: transport.ModeTACK, CC: "no-such-cc"}
	if _, err := Listen("127.0.0.1:0", Config{Transport: bad}); err == nil {
		t.Fatal("Listen accepted an invalid transport config")
	}
}

// TestDialAddr covers the standalone single-connection helper: the private
// endpoint must be torn down when the connection finishes.
func TestDialAddr(t *testing.T) {
	const size = 64 << 10
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: size}
	srv, err := Listen("127.0.0.1:0", Config{Transport: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialAddr(srv.LocalAddr().String(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !c.Sender().Done() {
		t.Fatal("sender not done")
	}
}

func ExampleListen() {
	tcfg := transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 16}
	srv, _ := Listen("127.0.0.1:0", Config{Transport: tcfg})
	defer srv.Close()
	go func() {
		for {
			c, err := srv.Accept()
			if err != nil {
				return
			}
			go func() { c.Wait(0) }()
		}
	}()
	c, _ := DialAddr(srv.LocalAddr().String(), tcfg)
	if err := c.Wait(0); err == nil {
		fmt.Println("transfer complete")
	}
	// Output: transfer complete
}
