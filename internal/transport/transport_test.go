package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/cc"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/stream"
)

// harness wires a Sender and Receiver over a duplex netem pipe.
type harness struct {
	loop *sim.Loop
	snd  *Sender
	rcv  *Receiver
	fwd  *netem.Link
	rev  *netem.Link
	// blocked samples the receive buffer's head-of-line-blocked bytes at
	// each packet the receiver emits (Figure 5(a)'s metric).
	blocked *stats.Summary
}

func ms(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }

// newHarness builds a flow over rateBps / owd with loss rates (ρ, ρ′).
func newHarness(t *testing.T, seed int64, cfg Config, rateBps float64, owd sim.Time, dataLoss, ackLoss float64) *harness {
	t.Helper()
	loop := sim.NewLoop(seed)
	h := &harness{loop: loop, blocked: stats.NewSummary()}
	fwdCfg, revCfg := netem.Symmetric(rateBps, owd, 0, dataLoss, ackLoss)
	h.fwd = netem.NewLink(loop, fwdCfg, func(pl any, n int) { h.rcv.OnPacket(pl.(*packet.Packet)) })
	h.rev = netem.NewLink(loop, revCfg, func(pl any, n int) { h.snd.OnPacket(pl.(*packet.Packet)) })
	snd, err := NewSender(loop, cfg, func(p *packet.Packet) { h.fwd.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP) })
	if err != nil {
		t.Fatal(err)
	}
	h.snd = snd
	h.rcv = NewReceiver(loop, cfg, func(p *packet.Packet) {
		h.blocked.Add(float64(h.rcv.Buffer().BlockedBytes()))
		h.rev.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP)
	})
	return h
}

func (h *harness) run(d sim.Time) {
	h.snd.Start()
	h.loop.RunUntil(d)
}

func TestHandshakeEstablishes(t *testing.T) {
	h := newHarness(t, 1, Config{Mode: ModeTACK}, 100e6, ms(10), 0, 0)
	h.run(ms(100))
	if !h.snd.Established() {
		t.Fatal("handshake did not complete")
	}
}

func TestBoundedTransferCompletesTACK(t *testing.T) {
	const size = 1 << 20
	h := newHarness(t, 2, Config{Mode: ModeTACK, TransferBytes: size}, 50e6, ms(10), 0, 0)
	done := false
	h.snd.OnDone = func() { done = true }
	h.run(5 * sim.Second)
	if !done {
		t.Fatalf("transfer incomplete: acked %d/%d, delivered %d",
			h.snd.CumAcked(), size, h.rcv.Delivered())
	}
	if h.rcv.Delivered() != size {
		t.Fatalf("delivered %d, want %d", h.rcv.Delivered(), size)
	}
	if !h.rcv.Complete() {
		t.Fatal("receiver did not observe stream completion")
	}
}

// TestLoopbackTransferFillsTheAckInterval moves 32 MiB over a 10 Gbit/s,
// 2 × 20 µs path: RTTmin 40 µs, so the α floor spaces TACKs 25 RTTmin
// apart. A window sized to RTTmin and a 64-MSS aggregation cap delivered
// one small window per millisecond (20.1 MB/s); one that provisions the
// interval the sender asked for runs more than twice as fast.
func TestLoopbackTransferFillsTheAckInterval(t *testing.T) {
	const size = 32 << 20
	h := newHarness(t, 1, Config{Mode: ModeTACK, TransferBytes: size}, 10e9, 20*sim.Microsecond, 0, 0)
	var doneAt sim.Time
	h.snd.OnDone = func() { doneAt = h.loop.Now() }
	h.run(10 * sim.Second)
	if doneAt == 0 {
		t.Fatalf("transfer incomplete: acked %d of %d", h.snd.CumAcked(), size)
	}
	goodput := float64(size) / doneAt.Seconds() / 1e6
	t.Logf("%.1f MB/s, cwnd %d B, %d acks, %d retransmits", goodput, h.snd.CWND(), h.rcv.Stats.AcksSent(), h.snd.Stats.Retransmits)
	if goodput < 2*20.1 {
		t.Errorf("goodput %.1f MB/s, want at least twice the 20.1 MB/s of an RTTmin-sized window", goodput)
	}
}

func TestBoundedTransferCompletesLegacy(t *testing.T) {
	const size = 1 << 20
	h := newHarness(t, 3, Config{Mode: ModeLegacy, TransferBytes: size}, 50e6, ms(10), 0, 0)
	h.run(5 * sim.Second)
	if !h.snd.Done() {
		t.Fatalf("legacy transfer incomplete: acked %d/%d", h.snd.CumAcked(), size)
	}
}

func TestTransferSurvivesDataLossTACK(t *testing.T) {
	const size = 1 << 20
	h := newHarness(t, 4, Config{Mode: ModeTACK, TransferBytes: size}, 50e6, ms(20), 0.02, 0)
	h.run(20 * sim.Second)
	if !h.snd.Done() {
		t.Fatalf("lossy transfer incomplete: acked %d/%d, retx=%d timeouts=%d",
			h.snd.CumAcked(), size, h.snd.Stats.Retransmits, h.snd.Stats.Timeouts)
	}
	if h.snd.Stats.Retransmits == 0 {
		t.Fatal("2% loss but no retransmissions")
	}
	if h.rcv.Stats.LossIACKs == 0 {
		t.Fatal("losses occurred but no loss IACKs were sent")
	}
}

func TestTransferSurvivesDataLossLegacy(t *testing.T) {
	const size = 1 << 20
	h := newHarness(t, 5, Config{Mode: ModeLegacy, TransferBytes: size}, 50e6, ms(20), 0.02, 0)
	h.run(30 * sim.Second)
	if !h.snd.Done() {
		t.Fatalf("lossy legacy transfer incomplete: acked %d/%d, retx=%d timeouts=%d",
			h.snd.CumAcked(), size, h.snd.Stats.Retransmits, h.snd.Stats.Timeouts)
	}
}

func TestTransferSurvivesBidirectionalLoss(t *testing.T) {
	const size = 1 << 20
	h := newHarness(t, 6, Config{Mode: ModeTACK, TransferBytes: size, RichTACK: true},
		20e6, ms(50), 0.01, 0.05)
	h.run(60 * sim.Second)
	if !h.snd.Done() {
		t.Fatalf("bidirectionally lossy transfer incomplete: acked %d/%d",
			h.snd.CumAcked(), size)
	}
}

func TestTACKSendsFarFewerAcksThanLegacy(t *testing.T) {
	run := func(mode Mode, policy ackpolicy.Policy) (acks, dataPkts int) {
		cfg := Config{Mode: mode, AckPolicy: policy, TransferBytes: 8 << 20}
		h := newHarness(t, 7, cfg, 100e6, ms(40), 0, 0)
		h.run(30 * sim.Second)
		if !h.snd.Done() {
			t.Fatalf("mode %v transfer incomplete", mode)
		}
		return h.rcv.Stats.AcksSent(), h.rcv.Stats.DataPackets
	}
	tackAcks, dataPkts := run(ModeTACK, nil)
	legacyAcks, _ := run(ModeLegacy, ackpolicy.NewPerPacket())
	if tackAcks*10 > legacyAcks {
		t.Fatalf("TACK acks = %d not <10%% of legacy %d (data pkts %d)",
			tackAcks, legacyAcks, dataPkts)
	}
	// Paper Eq. 3 check: ~β/RTTmin * duration acks in the periodic regime.
	// RTTmin = 80ms → 50 Hz ceiling; the transfer runs a few seconds.
	if tackAcks > 50*30+100 {
		t.Fatalf("TACK acks = %d exceed the periodic bound", tackAcks)
	}
}

func TestReceiverComputesDeliveryRate(t *testing.T) {
	h := newHarness(t, 8, Config{Mode: ModeTACK, TransferBytes: 16 << 20, CC: "static"}, 50e6, ms(10), 0, 0)
	h.snd.Start()
	h.snd.Controller().(*cc.Static).SetRate(40e6)
	h.loop.RunUntil(2 * sim.Second)
	// A 40 Mbit/s paced flow over a 50 Mbit/s link: goodput tracks the rate.
	bps := float64(h.rcv.Delivered()) * 8 / 2
	if bps < 36e6 || bps > 42e6 {
		t.Fatalf("delivered %.1f Mbit/s, want ~40", bps/1e6)
	}
}

func TestRTTMinAccuracyTACK(t *testing.T) {
	// True RTT = 2*40 = 80ms; TACK's corrected timing should land within
	// a few percent despite 20ms-spaced ACKs.
	h := newHarness(t, 9, Config{Mode: ModeTACK, TransferBytes: 4 << 20}, 100e6, ms(40), 0, 0)
	h.run(10 * sim.Second)
	min, ok := h.snd.RTTMin()
	if !ok {
		t.Fatal("no RTT estimate")
	}
	// Serialization adds ~0.12ms per packet at 100 Mbit/s.
	if min < ms(80) || min > ms(84) {
		t.Fatalf("RTTmin = %v, want ~80ms", min)
	}
}

func TestLegacyRTTMinBiasedByDelayedAcks(t *testing.T) {
	// Legacy delayed acks (40ms timer) bias samples upward when the rate is
	// low: the echoed timestamp belongs to the first packet of the delayed
	// interval, so samples inherit the ACK delay. The unbiased handshake
	// sample ages out of the 10s min filter, after which the bias shows.
	run := func(seed int64, mode Mode) sim.Time {
		cfg := Config{Mode: mode, CC: "static", TransferBytes: 8 << 20}
		h := newHarness(t, seed, cfg, 10e6, ms(40), 0, 0)
		h.snd.Start()
		// Keep the flow slower than the link: no queueing delay.
		h.snd.Controller().(*cc.Static).SetRate(1e6)
		h.loop.RunUntil(25 * sim.Second)
		min, ok := h.snd.RTTMin()
		if !ok {
			t.Fatalf("mode %v: no RTT estimate", mode)
		}
		return min
	}
	legacyMin := run(10, ModeLegacy)
	tackMin := run(11, ModeTACK)
	if tackMin >= legacyMin {
		t.Fatalf("TACK RTTmin %v should be below legacy %v", tackMin, legacyMin)
	}
	// The paper's Figure 6(a) reports an 8-18% gap; accept anything clearly
	// above the noise floor.
	if gap := float64(legacyMin-tackMin) / float64(tackMin); gap < 0.02 {
		t.Fatalf("bias gap %.1f%% implausibly small", gap*100)
	}
}

func TestZeroWindowAndIACKRelease(t *testing.T) {
	// One stream whose window (1 MiB) dwarfs the connection's RecvBuf: a
	// reader that consumes nothing fills the connection window, and a
	// reader that then drains it frees no stream half a window — only the
	// connection-level release can wake the sender.
	const size = 1 << 20
	cfg := streamCfg(stream.Config{RecvWindow: size, MaxStreams: 4, SendBuffer: 2 << 20})
	cfg.RecvBuf = 64 << 10
	h := newHarness(t, 14, cfg, 50e6, ms(10), 0, 0)
	sizes := openAndSend(t, h, 1, size)
	h.run(sim.Second)
	// The receiver stalls at 64 KiB; sender must have stopped without loss.
	if held := h.rcv.Streams().Buffered(); int64(held) != h.rcv.Delivered() {
		t.Fatalf("nothing should be delivered without reads: %d of %d bytes left the stream rings",
			h.rcv.Delivered()-int64(held), h.rcv.Delivered())
	}
	if h.snd.Inflight() > 64<<10 {
		t.Fatalf("sender overran the advertised window: inflight=%d", h.snd.Inflight())
	}
	blockedAt := h.snd.CumAcked()
	if blockedAt == 0 {
		t.Fatal("no data transferred before stall")
	}
	// Drain the buffer: a window IACK should release the sender promptly.
	iacks := h.rcv.Stats.WindowIACKs
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.loop.RunUntil(1100 * sim.Millisecond)
	if h.snd.CumAcked() <= blockedAt {
		t.Fatalf("sender did not resume after window release (acked %d)", h.snd.CumAcked())
	}
	if h.rcv.Stats.WindowIACKs == iacks {
		t.Fatal("no window IACK was sent")
	}
	h.loop.RunUntil(5 * sim.Second)
	sink.verify(sizes)
}

func TestDisableIACKSlowsLossRecovery(t *testing.T) {
	// Paper Figure 5(a): a long-lived flow on a lossy data path; report the
	// head-of-line-blocked bytes at each acknowledgment. Without the
	// loss-event IACK, notification falls to the (poor) TACK's one-block
	// budget and blocked data accumulates for much longer.
	// A fixed send rate keeps the inflow identical in both arms, so the
	// blocked volume purely reflects how long holes linger.
	run := func(disable bool) float64 {
		// Pin the dup-thresh detector: the ablation isolates the IACK
		// notification path, and sender-side RACK marking would partially
		// mask the recovery gap it measures.
		cfg := Config{Mode: ModeTACK, DisableIACK: disable, CC: "static", RecvBuf: 64 << 20,
			Detector: DetectorDupThresh}
		h := newHarness(t, 13, cfg, 20e6, ms(100), 0.01, 0)
		h.snd.Start()
		h.snd.Controller().(*cc.Static).SetRate(12e6)
		h.loop.RunUntil(30 * sim.Second)
		if h.rcv.Delivered() == 0 {
			t.Fatalf("flow (disable=%v) delivered nothing", disable)
		}
		return h.blocked.Percentile(90)
	}
	with := run(false)
	without := run(true)
	if with*2 > without {
		t.Fatalf("IACK did not clearly reduce HoLB blocking: with=%v without=%v", with, without)
	}
}

func TestRetransmissionAmbiguityHandledEndToEnd(t *testing.T) {
	// Heavy loss including retransmission losses: the stream must still
	// complete exactly (no corruption, no deadlock).
	const size = 256 << 10
	h := newHarness(t, 14, Config{Mode: ModeTACK, TransferBytes: size, RichTACK: true},
		10e6, ms(30), 0.10, 0.05)
	h.run(120 * sim.Second)
	if !h.snd.Done() {
		t.Fatalf("10%%-loss transfer incomplete: acked %d/%d", h.snd.CumAcked(), size)
	}
	if h.rcv.Delivered() != size {
		t.Fatalf("delivered %d, want %d", h.rcv.Delivered(), size)
	}
}

func TestPacingSmoothsBursts(t *testing.T) {
	// With pacing, packet departures should be spread; without, bursts
	// arrive back-to-back after each ack. Measure the max burst observed
	// inside a 1ms window at the link input.
	burst := func(disable bool) int {
		loop := sim.NewLoop(15)
		var h harness
		h.loop = loop
		cfg := Config{Mode: ModeTACK, TransferBytes: 4 << 20, DisablePacing: disable}
		fwdCfg, revCfg := netem.Symmetric(100e6, ms(25), 1<<20, 0, 0)
		maxBurst, cur := 0, 0
		var windowStart sim.Time
		h.fwd = netem.NewLink(loop, fwdCfg, func(pl any, n int) { h.rcv.OnPacket(pl.(*packet.Packet)) })
		h.rev = netem.NewLink(loop, revCfg, func(pl any, n int) { h.snd.OnPacket(pl.(*packet.Packet)) })
		snd, err := NewSender(loop, cfg, func(p *packet.Packet) {
			if loop.Now()-windowStart > sim.Millisecond {
				windowStart = loop.Now()
				cur = 0
			}
			cur++
			if cur > maxBurst {
				maxBurst = cur
			}
			h.fwd.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP)
		})
		if err != nil {
			t.Fatal(err)
		}
		h.snd = snd
		h.rcv = NewReceiver(loop, cfg, func(p *packet.Packet) {
			h.blocked.Add(float64(h.rcv.Buffer().BlockedBytes()))
			h.rev.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP)
		})
		h.run(10 * sim.Second)
		return maxBurst
	}
	paced := burst(false)
	unpaced := burst(true)
	if paced >= unpaced {
		t.Fatalf("pacing did not reduce bursts: paced=%d unpaced=%d", paced, unpaced)
	}
}

func TestStatsConsistency(t *testing.T) {
	const size = 1 << 20
	h := newHarness(t, 16, Config{Mode: ModeTACK, TransferBytes: size}, 50e6, ms(10), 0.01, 0)
	h.run(30 * sim.Second)
	s, r := h.snd.Stats, h.rcv.Stats
	if !h.snd.Done() {
		t.Fatal("incomplete")
	}
	if s.DataBytes < size {
		t.Fatalf("sent bytes %d < stream size", s.DataBytes)
	}
	if got := h.rcv.Delivered(); got != size {
		t.Fatalf("delivered %d", got)
	}
	if r.BytesDelivered != size {
		t.Fatalf("Stats.BytesDelivered = %d, want %d", r.BytesDelivered, size)
	}
	if s.AcksReceived == 0 || r.AcksSent() == 0 {
		t.Fatal("no acks recorded")
	}
	if s.AcksReceived > r.AcksSent() {
		t.Fatalf("received %d acks but receiver sent only %d", s.AcksReceived, r.AcksSent())
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() (uint64, int, int) {
		h := newHarness(t, 17, Config{Mode: ModeTACK, TransferBytes: 1 << 20}, 30e6, ms(20), 0.02, 0.02)
		h.run(20 * sim.Second)
		return h.snd.CumAcked(), h.snd.Stats.Retransmits, h.rcv.Stats.AcksSent()
	}
	a1, b1, c1 := run()
	a2, b2, c2 := run()
	if a1 != a2 || b1 != b2 || c1 != c2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", a1, b1, c1, a2, b2, c2)
	}
}

func TestUnknownControllerErrors(t *testing.T) {
	loop := sim.NewLoop(1)
	if _, err := NewSender(loop, Config{CC: "bogus"}, func(*packet.Packet) {}); err == nil {
		t.Fatal("bogus controller should error")
	}
}

// MaxRTO bounds the data-path timeout after the ack-hold budget and the
// exponential backoff, not just the estimator's share of it: with the peer
// gone silent after the handshake, the seventh timeout must still come
// within MaxRTO of the sixth.
func TestMaxRTOBoundsBackedOffTimeout(t *testing.T) {
	const maxRTO = 500 * sim.Millisecond
	loop := sim.NewLoop(1)
	cfg := Config{TransferBytes: 1 << 20, MaxRTO: maxRTO, Detector: DetectorDupThresh}
	var snd *Sender
	var timeouts []sim.Time // departure of each RTO retransmission
	snd, err := NewSender(loop, cfg, func(p *packet.Packet) {
		switch {
		case p.Type == packet.TypeSYN:
			synack := &packet.Packet{Type: packet.TypeSYNACK, Ack: &packet.AckInfo{EchoDeparture: p.SentAt, Window: 1 << 20}}
			loop.After(ms(10), func() { snd.OnPacket(synack) })
		case p.Type == packet.TypeData && p.Retrans:
			timeouts = append(timeouts, p.SentAt)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	snd.Start()
	loop.RunUntil(30 * sim.Second)
	if snd.Stats.Timeouts < 7 || len(timeouts) != snd.Stats.Timeouts {
		t.Fatalf("want ≥ 7 timeouts, each one retransmission; got %d timeouts, %d retransmissions",
			snd.Stats.Timeouts, len(timeouts))
	}
	if gap := timeouts[6] - timeouts[5]; gap > maxRTO {
		t.Fatalf("seventh timeout %v after the sixth, MaxRTO is %v", gap, maxRTO)
	}
	if rto := snd.BaseRTO(); rto > maxRTO {
		t.Fatalf("BaseRTO %v above MaxRTO %v", rto, maxRTO)
	}
}
