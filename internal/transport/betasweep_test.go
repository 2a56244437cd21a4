package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/cc"
	"github.com/tacktp/tack/internal/sim"
)

// TestBetaSweepRobustness validates Appendix B.3 end-to-end: β values from
// 2 to 8 must all sustain high utilization on a clean large-bdp path; the
// ACK count must scale roughly linearly with β in the periodic regime.
func TestBetaSweepRobustness(t *testing.T) {
	const linkBps = 50e6
	dur := 10 * sim.Second
	run := func(beta int) (goodput float64, acks int) {
		cfg := Config{Mode: ModeTACK, Params: Params{Beta: beta, L: 2}}
		h := newHarness(t, 31, cfg, linkBps, ms(50), 0, 0)
		h.run(dur)
		return float64(h.rcv.Delivered()) * 8 / dur.Seconds(), h.rcv.Stats.AcksSent()
	}
	type res struct {
		beta    int
		goodput float64
		acks    int
	}
	var results []res
	for _, beta := range []int{2, 4, 8} {
		g, a := run(beta)
		results = append(results, res{beta, g, a})
		if g < 0.7*linkBps {
			t.Errorf("beta=%d: goodput %.1f Mbit/s below 70%% utilization", beta, g/1e6)
		}
	}
	// ACK counts ascend with beta (more periodic ACKs per RTT).
	if !(results[0].acks < results[1].acks && results[1].acks < results[2].acks) {
		t.Errorf("ack counts not ascending in beta: %+v", results)
	}
	// Rough linearity: beta=8 sends ~4x the acks of beta=2 (within 2x slack).
	ratio := float64(results[2].acks) / float64(results[0].acks)
	if ratio < 2 || ratio > 8 {
		t.Errorf("beta=8/beta=2 ack ratio %.1f outside [2,8]", ratio)
	}
}

// TestLSweepLowRate validates the L side of Appendix B.3: at low rate
// (byte-counting regime) the ACK count scales inversely with L while
// delivery stays intact.
func TestLSweepLowRate(t *testing.T) {
	dur := 20 * sim.Second
	run := func(l int) (acks int, delivered int64) {
		cfg := Config{Mode: ModeTACK, CC: "static", Params: Params{Beta: 4, L: l}}
		h := newHarness(t, 32, cfg, 10e6, ms(10), 0, 0)
		h.snd.Start()
		// 2 Mbit/s against a 10 Mbit/s link: deep in the byte-counting
		// regime (f_b = 2e6/(L·1500·8) << beta/RTTmin = 200 Hz).
		h.snd.Controller().(*cc.Static).SetRate(2e6)
		h.loop.RunUntil(dur)
		return h.rcv.Stats.AcksSent(), h.rcv.Delivered()
	}
	a2, d2 := run(2)
	a8, d8 := run(8)
	if d2 < 4<<20 || d8 < 4<<20 {
		t.Fatalf("low-rate flows under-delivered: %d / %d bytes", d2, d8)
	}
	// L=8 should send roughly a quarter of L=2's acks.
	ratio := float64(a2) / float64(a8)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("L=2/L=8 ack ratio %.1f outside [2.5,6] (a2=%d a8=%d)", ratio, a2, a8)
	}
}
