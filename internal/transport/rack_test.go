package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

func TestReorderWindowStartsAtQuarterRTT(t *testing.T) {
	r := newRackState()
	if got := r.reorderWindow(); got != reorderWindowInit {
		t.Fatalf("window before any sample = %v, want init %v", got, reorderWindowInit)
	}
	r.onRTTSample(ms(40))
	if got := r.reorderWindow(); got != ms(10) {
		t.Fatalf("window after 40ms RTT = %v, want RTT/4 = 10ms", got)
	}
	// The base is the sliding *minimum*: a larger later sample must not
	// raise the window.
	r.onRTTSample(ms(80))
	if got := r.reorderWindow(); got != ms(10) {
		t.Fatalf("window after 80ms sample = %v, want min-RTT/4 = 10ms", got)
	}
}

func TestReorderWindowClampsToBounds(t *testing.T) {
	r := newRackState()
	r.onRTTSample(2 * sim.Millisecond) // RTT/4 = 0.5ms, below the 1ms floor
	if got := r.reorderWindow(); got != reorderWindowMin {
		t.Fatalf("window for 2ms RTT = %v, want floor %v", got, reorderWindowMin)
	}

	r = newRackState()
	r.onRTTSample(2 * sim.Second) // RTT/4 = 500ms, above the 200ms ceiling
	if got := r.reorderWindow(); got != reorderWindowMax {
		t.Fatalf("window for 2s RTT = %v, want ceiling %v", got, reorderWindowMax)
	}
}

func TestReorderWindowWidensOnReordering(t *testing.T) {
	r := newRackState()
	r.onRTTSample(ms(40)) // base window 10ms

	if fresh := r.observeReorders(1); fresh != 1 {
		t.Fatalf("observeReorders(1) = %d fresh, want 1", fresh)
	}
	if got := r.reorderWindow(); got != ms(20) {
		t.Fatalf("window after one reorder event = %v, want doubled 20ms", got)
	}

	// Re-reporting the same cumulative total must not widen again.
	if fresh := r.observeReorders(1); fresh != 0 {
		t.Fatalf("repeated observeReorders(1) = %d fresh, want 0", fresh)
	}
	if got := r.reorderWindow(); got != ms(20) {
		t.Fatalf("window after stale report = %v, want unchanged 20ms", got)
	}

	// Two more events double twice; pushing far beyond the cap saturates at
	// the configured ceiling rather than overflowing.
	r.observeReorders(3)
	if got := r.reorderWindow(); got != ms(80) {
		t.Fatalf("window after three events = %v, want 80ms", got)
	}
	r.observeReorders(1000)
	if got := r.reorderWindow(); got != reorderWindowMax {
		t.Fatalf("window after many events = %v, want ceiling %v", got, reorderWindowMax)
	}
}

func TestProbeTimeout(t *testing.T) {
	r := newRackState()
	if got := r.probeTimeout(0, 0); got != sim.Second {
		t.Fatalf("PTO before any RTT estimate = %v, want 1s", got)
	}
	// 2×SRTT plus half the min RTT for the receiver's ack delay.
	if got := r.probeTimeout(ms(50), ms(40)); got != ms(120) {
		t.Fatalf("PTO(srtt=50ms, min=40ms) = %v, want 120ms", got)
	}
}

// tailLossHarness wires a short bounded transfer whose final segment's
// original transmission is dropped: the classic tail loss that no
// receiver-side gap detection can see (nothing is sent after the hole).
func tailLossHarness(t *testing.T, seed int64, cfg Config) *harness {
	t.Helper()
	loop := sim.NewLoop(seed)
	h := &harness{loop: loop}
	fwdCfg, revCfg := netem.Symmetric(50e6, ms(10), 0, 0, 0)
	h.fwd = netem.NewLink(loop, fwdCfg, func(pl any, n int) { h.rcv.OnPacket(pl.(*packet.Packet)) })
	h.rev = netem.NewLink(loop, revCfg, func(pl any, n int) { h.snd.OnPacket(pl.(*packet.Packet)) })
	snd, err := NewSender(loop, cfg, func(p *packet.Packet) {
		if p.FIN && !p.Retrans {
			return // drop the tail's first transmission
		}
		h.fwd.Send(p, p.WireSize())
	})
	if err != nil {
		t.Fatal(err)
	}
	h.snd = snd
	h.rcv = NewReceiver(loop, cfg, func(p *packet.Packet) { h.rev.Send(p, p.WireSize()) })
	return h
}

func TestTLPRecoversTailLossBeforeRTO(t *testing.T) {
	cfg := Config{Mode: ModeTACK, TransferBytes: 32 << 10}
	h := tailLossHarness(t, 51, cfg)
	h.run(5 * sim.Second)
	if !h.snd.Done() {
		t.Fatalf("tail-loss transfer incomplete: acked %d", h.snd.CumAcked())
	}
	if h.snd.Stats.TLPProbes != 1 {
		t.Fatalf("TLP probes = %d, want exactly 1 (one-outstanding-probe rule)", h.snd.Stats.TLPProbes)
	}
	if h.snd.Stats.Timeouts != 0 {
		t.Fatalf("RTO fired %d times; the tail probe should recover before it", h.snd.Stats.Timeouts)
	}
}

func TestDisableTLPFallsBackToRTO(t *testing.T) {
	cfg := Config{Mode: ModeTACK, TransferBytes: 32 << 10,
		Loss: LossDetection{DisableTLP: true}}
	h := tailLossHarness(t, 52, cfg)
	h.run(5 * sim.Second)
	if !h.snd.Done() {
		t.Fatalf("tail-loss transfer incomplete: acked %d", h.snd.CumAcked())
	}
	if h.snd.Stats.TLPProbes != 0 {
		t.Fatalf("TLP disabled but %d probes fired", h.snd.Stats.TLPProbes)
	}
	if h.snd.Stats.Timeouts == 0 {
		t.Fatal("without TLP the tail loss should have required an RTO")
	}
}

func TestTLPRestartsRTO(t *testing.T) {
	// The probe's RTO restart (RFC 8985 §7.3) gives the probe's ack a full
	// window to arrive: with TLP on, the tail loss recovers with zero
	// timeouts (asserted above) and well under the 200ms MinRTO — the
	// completion time itself witnesses that the RTO never preempted.
	cfg := Config{Mode: ModeTACK, TransferBytes: 32 << 10}
	h := tailLossHarness(t, 53, cfg)
	done := sim.Time(0)
	h.snd.OnDone = func() { done = h.loop.Now() }
	h.run(5 * sim.Second)
	if done == 0 {
		t.Fatal("tail-loss transfer incomplete")
	}
	if done > ms(200) {
		t.Fatalf("completion at %v; TLP should beat the 200ms MinRTO path", done)
	}
}

func TestTLPNeverFiresWithZeroInflight(t *testing.T) {
	// An app-paced sender with nothing to send keeps an empty send buffer:
	// the tail probe must stay disarmed across an idle established
	// connection.
	cfg := Config{Mode: ModeTACK, AppPaced: true}
	h := newHarness(t, 54, cfg, 50e6, ms(10), 0, 0)
	h.run(5 * sim.Second)
	if !h.snd.Established() {
		t.Fatal("handshake did not complete")
	}
	if h.snd.Stats.TLPProbes != 0 {
		t.Fatalf("idle connection fired %d TLP probes", h.snd.Stats.TLPProbes)
	}
}

func TestRACKNoSpuriousMarksUnderMildReordering(t *testing.T) {
	// 5% of packets displaced ~2ms — about a 3-packet displacement plus
	// queueing at 50 Mbps — stays well inside the reorder window (min-RTT/4
	// = 5ms), so RACK must not mark anything lost on this loss-free path.
	cfg := Config{Mode: ModeTACK, TransferBytes: 4 << 20}
	h := reorderHarness(t, 55, cfg, 0.05, 2*sim.Millisecond)
	h.run(20 * sim.Second)
	if !h.snd.Done() {
		t.Fatal("transfer incomplete under mild reordering")
	}
	if h.snd.Stats.RackMarked != 0 {
		t.Fatalf("RACK spuriously marked %d segments under 3-packet reordering", h.snd.Stats.RackMarked)
	}
}

// On a sub-millisecond path the receiver's TACK spacing is floored at
// ackpolicy.MinInterval, far above RTTmin/β, and a real peer's timers add
// lateness of their own (modelled here: every acknowledgment leaves up to
// half a millisecond after the receiver decided to send it). A probe
// timeout that follows RTTmin down races each of those TACKs. A lossless
// short transfer must not probe at all (it used to: about three probes,
// and three duplicates, per 64 KiB object on loopback).
func TestNoSpuriousTLPOnSubMillisecondRTT(t *testing.T) {
	const owd = 50 * sim.Microsecond
	for seed := int64(60); seed < 68; seed++ {
		loop := sim.NewLoop(seed)
		cfg := Config{Mode: ModeTACK, TransferBytes: 64 << 10}
		var snd *Sender
		var rcv *Receiver
		snd, err := NewSender(loop, cfg, func(p *packet.Packet) {
			loop.After(owd, func() { rcv.OnPacket(p) })
		})
		if err != nil {
			t.Fatal(err)
		}
		rcv = NewReceiver(loop, cfg, func(p *packet.Packet) {
			late := sim.Time(loop.Rand().Int63n(int64(500 * sim.Microsecond)))
			loop.After(owd+late, func() { snd.OnPacket(p) })
		})
		snd.Start()
		loop.RunUntil(sim.Second)
		if !snd.Done() {
			t.Fatalf("seed %d: transfer incomplete: acked %d", seed, snd.CumAcked())
		}
		if n := snd.Stats.TLPProbes; n != 0 {
			t.Errorf("seed %d: %d tail loss probes on a lossless 100µs path", seed, n)
		}
		if n := rcv.Stats.DupPackets; n != 0 {
			t.Errorf("seed %d: receiver saw %d duplicates", seed, n)
		}
	}
}
