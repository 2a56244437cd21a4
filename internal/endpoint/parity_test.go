package endpoint

import (
	"testing"
	"time"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/transport"
)

// parityWAN is the one path both clocks run in the parity test: 20 Mbit/s,
// 10 ms one way, a 50 KB drop-tail queue each way, Gilbert–Elliott burst
// loss on the data direction.
var parityWAN = struct{ data, ack netem.Config }{
	data: netem.Config{RateBps: 20e6, Delay: 10 * sim.Millisecond, QueueBytes: 50_000,
		Impair: netem.Impairments{GE: netem.GilbertElliott{PEnterBad: 0.005, PExitBad: 0.5}}},
	ack: netem.Config{RateBps: 20e6, Delay: 10 * sim.Millisecond, QueueBytes: 50_000},
}

// parityMetrics is what the parity test compares: goodput in MB/s,
// retransmissions per DATA packet sent, acks per DATA packet received.
type parityMetrics struct {
	goodput, retx, acksPerData float64
}

func measure(bytes int64, elapsed float64, snd transport.SenderStats, rcv transport.ReceiverStats) parityMetrics {
	return parityMetrics{
		goodput:     float64(bytes) / elapsed / 1e6,
		retx:        float64(snd.Retransmits) / float64(snd.DataPackets),
		acksPerData: float64(rcv.AcksSent()) / float64(rcv.DataPackets),
	}
}

// meanOf averages runs metric by metric.
func meanOf(runs []parityMetrics) (m parityMetrics) {
	for _, r := range runs {
		m.goodput += r.goodput / float64(len(runs))
		m.retx += r.retx / float64(len(runs))
		m.acksPerData += r.acksPerData / float64(len(runs))
	}
	return m
}

// paritySim runs one TACK transfer between two sim-driven endpoints whose
// two links are parityWAN's.
func paritySim(t *testing.T, seed, size int64) parityMetrics {
	t.Helper()
	n := newSimNet(t, seed, parityWAN.ack)
	srv, srvAddr := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK}})
	cli, cliAddr := n.endpoint(Config{Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size}})
	n.setLink(cliAddr, srvAddr, parityWAN.data)
	srvConn, cliConn := n.connect(srv, cli)
	if !n.finished(srvConn, 60*sim.Second) {
		t.Fatalf("sim seed %d: %d of %d bytes delivered in a minute", seed, srvConn.Receiver().Delivered(), size)
	}
	if err := srvConn.Err(); err != nil {
		t.Fatalf("sim seed %d: server: %v", seed, err)
	}
	return measure(size, srvConn.completeAt.Seconds(), cliConn.Sender().Stats, srvConn.Receiver().Stats)
}

// paritySocket runs one TACK transfer between two endpoints on loopback,
// through a UDPProxy whose two links are parityWAN's.
func paritySocket(t *testing.T, seed, size int64) parityMetrics {
	t.Helper()
	srv, err := Listen("127.0.0.1:0", Config{Transport: transport.Config{Mode: transport.ModeTACK}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy, err := netem.NewUDPProxy(netem.ProxyConfig{
		Target:   srv.LocalAddr().String(),
		ToServer: parityWAN.data,
		ToClient: parityWAN.ack,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cli, err := Listen("127.0.0.1:0", Config{Transport: transport.Config{Mode: transport.ModeTACK, TransferBytes: size}})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	start := time.Now()
	srvConn, cliConn := dialEstablished(t, srv, cli, proxy.Addr().String())
	if err := cliConn.Wait(time.Minute); err != nil {
		t.Fatalf("socket seed %d: client: %v", seed, err)
	}
	if err := srvConn.Wait(time.Minute); err != nil {
		t.Fatalf("socket seed %d: server: %v", seed, err)
	}
	return measure(size, srvConn.CompletedAt().Sub(start).Seconds(), cliConn.Sender().Stats, srvConn.Receiver().Stats)
}

// TestSimSocketParity runs one path on both clocks — two endpoints over
// parityWAN's links on the sim driver, and the same links in a UDPProxy
// between two socket-driven endpoints — and requires the two to agree on
// goodput, retransmission ratio and ack frequency. Both sides run the same
// endpoint code, handshake included, so what is left between them is the
// socket driver: wall-clock timer lateness and batching.
func TestSimSocketParity(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock transfers through a rate-limited proxy")
	}
	const size = 4 << 20
	seeds := []int64{1, 2}
	var simRuns, sockRuns []parityMetrics
	for _, seed := range seeds {
		simRuns = append(simRuns, paritySim(t, seed, size))
		sockRuns = append(sockRuns, paritySocket(t, seed, size))
		t.Logf("seed %d: sim %+v, socket %+v", seed, simRuns[len(simRuns)-1], sockRuns[len(sockRuns)-1])
	}
	virt, wall := meanOf(simRuns), meanOf(sockRuns)
	t.Logf("mean over %d seeds: sim %+v, socket %+v", len(seeds), virt, wall)
	// Bounds are twice the widest gap seen over 32 socket repetitions of
	// these two seeds (EXPERIMENTS.md "One path model"): goodput 2.9 %,
	// retransmission ratio 0.143, acks per DATA packet 0.048. Both sides
	// retransmit about 30 % of what they send: the overshoot is the
	// controller's, not the relay's.
	if r := wall.goodput / virt.goodput; r < 0.94 || r > 1.06 {
		t.Errorf("goodput: socket %.3f MB/s is %.3f× the simulator's %.3f", wall.goodput, r, virt.goodput)
	}
	if d := wall.retx - virt.retx; d < -0.29 || d > 0.29 {
		t.Errorf("retransmits per DATA packet: socket %.3f, simulator %.3f", wall.retx, virt.retx)
	}
	if d := wall.acksPerData - virt.acksPerData; d < -0.1 || d > 0.1 {
		t.Errorf("acks per DATA packet: socket %.3f, simulator %.3f", wall.acksPerData, virt.acksPerData)
	}
}
