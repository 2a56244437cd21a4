package endpoint

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/batchio"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

// TestFlushCountsEachDatagramOnceUnderTrainErrors queues trains to a peer
// the kernel accepts and trains to one it rejects for a reason that says
// nothing about trains (a v4-mapped destination on a v6-only socket:
// ENETUNREACH before the datagrams are looked at), and checks flush's
// books: every queued datagram is either one ep.tx_errors or one
// ep.sock.0.tx_packets, the accepted ones arrive once each, and the Conn
// keeps building trains.
func TestFlushCountsEachDatagramOnceUnderTrainErrors(t *testing.T) {
	lo6 := &net.UDPAddr{IP: net.IPv6loopback}
	uc, err := net.ListenUDP("udp6", lo6)
	if err != nil {
		t.Skipf("no IPv6 loopback: %v", err)
	}
	defer uc.Close()
	peer, err := net.ListenUDP("udp6", lo6)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	good := peer.LocalAddr().(*net.UDPAddr)
	bad := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: good.Port}

	reg := telemetry.NewRegistry()
	ep := &Endpoint{
		mTxErrors:     reg.Counter("ep.tx_errors"),
		mBatchWrite:   reg.Histogram("ep.batch.write_size"),
		mTrainSize:    reg.Histogram("ep.batch.train_size"),
		mGSOFallbacks: reg.Counter("ep.batch.gso_fallbacks"),
	}
	ep.bufPool.New = func() any { b := make([]byte, 0, 2048); return &b }
	sh := newShard(ep, newEpSocket(0, uc, reg), 1)
	sh.wr = sh.sock.bconn.NewWriter(egressBatchSize)

	queued, wantGood := 0, map[string]bool{}
	queue := func(run, n int, addr *net.UDPAddr) {
		for i := 0; i < n; i++ {
			bp := ep.getBuf()
			*bp = append((*bp)[:0], fmt.Sprintf("%02d-%02d%1200s", run, i, "")...)
			if addr == good {
				wantGood[string(*bp)] = true
			}
			sh.egress = append(sh.egress, batchio.Message{Buf: *bp, Addr: addr})
			sh.egressBufs = append(sh.egressBufs, bp)
			queued++
		}
	}
	// A kernel without UDP_SEGMENT refuses the first train it is shown;
	// the books below must balance there too, so show it one first.
	queue(0, 2, good)
	sh.flush()
	fallbacks := reg.Counter("ep.batch.gso_fallbacks").Value()
	trains := fallbacks == 0 && reg.Snapshot().Histograms["ep.batch.train_size"].Max == 2

	// Five runs of same-sized datagrams: good, bad, good, bad, good.
	const run = 6
	for r := 1; r <= 5; r++ {
		if r%2 == 0 {
			queue(r, run, bad)
		} else {
			queue(r, run, good)
		}
	}
	sh.flush()

	errs, sent := reg.Counter("ep.tx_errors").Value(), reg.Counter("ep.sock.0.tx_packets").Value()
	if errs+sent != int64(queued) {
		t.Errorf("ep.tx_errors %d + ep.sock.0.tx_packets %d = %d, want the %d datagrams queued", errs, sent, errs+sent, queued)
	}
	if errs != 2*run {
		t.Errorf("ep.tx_errors = %d, want %d: each rejected datagram once", errs, 2*run)
	}
	if n := reg.Counter("ep.batch.gso_fallbacks").Value(); n != fallbacks {
		t.Errorf("ep.batch.gso_fallbacks went %d → %d: an unreachable peer turned trains off", fallbacks, n)
	}
	if max := reg.Snapshot().Histograms["ep.batch.train_size"].Max; trains && max != run {
		t.Errorf("longest train %v datagrams, want %d: the rejected datagrams were not sent as trains", max, run)
	}
	if len(sh.egress) != 0 || len(sh.egressBufs) != 0 {
		t.Errorf("flush left %d datagrams queued", len(sh.egress))
	}
	buf := make([]byte, 2048)
	for len(wantGood) > 0 {
		peer.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := peer.Read(buf)
		if err != nil {
			t.Fatalf("%d accepted datagrams never arrived: %v", len(wantGood), err)
		}
		if !wantGood[string(buf[:n])] {
			t.Fatalf("datagram %q arrived twice, or was never queued", buf[:5])
		}
		delete(wantGood, string(buf[:n]))
	}
	peer.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := peer.Read(buf); err == nil {
		t.Fatalf("datagram %q arrived twice", buf[:min(n, 5)])
	}
}

// TestTrainsCrossPlainHop moves 4 MiB through netem.UDPProxy, a hop that
// reads and writes one datagram at a time: whatever the endpoints send as
// trains must reach it, and leave it, as whole datagrams.
func TestTrainsCrossPlainHop(t *testing.T) {
	const size = 4 << 20
	srvReg, cliReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	srv, err := Listen("127.0.0.1:0", Config{Transport: transport.Config{Mode: transport.ModeTACK, Metrics: srvReg}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{Target: srv.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cli, err := Listen("127.0.0.1:0", Config{Transport: transport.Config{
		Mode: transport.ModeTACK, TransferBytes: size, Metrics: cliReg,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	srvConn, cliConn := dialEstablished(t, srv, cli, proxy.Addr().String())
	if err := cliConn.Wait(60 * time.Second); err != nil {
		t.Fatalf("client: %v", err)
	}
	if err := srvConn.Wait(60 * time.Second); err != nil {
		t.Fatalf("server: %v", err)
	}
	if got := srvConn.Receiver().Delivered(); got != size {
		t.Errorf("server delivered %d bytes, want exactly %d", got, size)
	}
	for name, reg := range map[string]*telemetry.Registry{"server": srvReg, "client": cliReg} {
		if n := reg.Counter("ep.rx_corrupt").Value(); n != 0 {
			t.Errorf("%s: ep.rx_corrupt = %d, want 0", name, n)
		}
	}
	trains := cliReg.Snapshot().Histograms["ep.batch.train_size"]
	t.Logf("client egress: %d trains, mean %.1f datagrams, max %.0f", trains.Count, trains.Mean, trains.Max)
	if trains.Count == 0 {
		t.Error("ep.batch.train_size never observed")
	}
}
