package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

// reorderHarness wires a flow over a reordering (but loss-free) path.
func reorderHarness(t *testing.T, seed int64, cfg Config, reorderRate float64, reorderDelay sim.Time) *harness {
	t.Helper()
	loop := sim.NewLoop(seed)
	h := &harness{loop: loop}
	fwdCfg := netem.Config{RateBps: 50e6, Delay: ms(10), QueueBytes: 4 << 20,
		Impair: netem.Impairments{ReorderRate: reorderRate, ReorderDelay: reorderDelay}}
	revCfg := netem.Config{RateBps: 50e6, Delay: ms(10)}
	h.fwd = netem.NewLink(loop, fwdCfg, func(pl any, n int) { h.rcv.OnPacket(pl.(*packet.Packet)) })
	h.rev = netem.NewLink(loop, revCfg, func(pl any, n int) { h.snd.OnPacket(pl.(*packet.Packet)) })
	snd, err := NewSender(loop, cfg, func(p *packet.Packet) { h.fwd.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP) })
	if err != nil {
		t.Fatal(err)
	}
	h.snd = snd
	h.rcv = NewReceiver(loop, cfg, func(p *packet.Packet) { h.rev.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP) })
	return h
}

func TestReorderingToleratedBySettleDelay(t *testing.T) {
	// 5% of packets delayed 2 ms: well inside the settle delay (RTTmin/4 =
	// 5 ms), so no spurious retransmissions should occur.
	cfg := Config{Mode: ModeTACK, TransferBytes: 4 << 20}
	h := reorderHarness(t, 41, cfg, 0.05, 2*sim.Millisecond)
	h.run(20 * sim.Second)
	if !h.snd.Done() {
		t.Fatal("transfer incomplete under mild reordering")
	}
	if h.snd.Stats.Retransmits > 3 {
		t.Fatalf("mild reordering caused %d spurious retransmissions", h.snd.Stats.Retransmits)
	}
}

func TestHeavyReorderingCausesSpuriousRetx(t *testing.T) {
	// Delays beyond the settle delay get declared lost: spurious
	// retransmissions appear (the failure mode §7's adaptation targets).
	cfg := Config{Mode: ModeTACK, TransferBytes: 4 << 20}
	h := reorderHarness(t, 42, cfg, 0.05, 15*sim.Millisecond)
	h.run(20 * sim.Second)
	if !h.snd.Done() {
		t.Fatal("transfer incomplete under heavy reordering")
	}
	if h.snd.Stats.Retransmits < 10 {
		t.Fatalf("expected spurious retransmissions, got %d", h.snd.Stats.Retransmits)
	}
}

func TestAdaptiveSettleSuppressesSpuriousRetx(t *testing.T) {
	run := func(adaptive bool) int {
		cfg := Config{Mode: ModeTACK, TransferBytes: 8 << 20, AdaptiveSettle: adaptive}
		h := reorderHarness(t, 43, cfg, 0.05, 15*sim.Millisecond)
		h.run(30 * sim.Second)
		if !h.snd.Done() {
			t.Fatalf("transfer (adaptive=%v) incomplete", adaptive)
		}
		return h.snd.Stats.Retransmits
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive*2 > fixed {
		t.Fatalf("adaptive settle did not clearly reduce spurious retx: fixed=%d adaptive=%d", fixed, adaptive)
	}
}

func TestNetemReorderingStats(t *testing.T) {
	loop := sim.NewLoop(1)
	got := 0
	l := netem.NewLink(loop, netem.Config{Delay: ms(1), Impair: netem.Impairments{ReorderRate: 0.5}}, func(pl any, n int) { got++ })
	for i := 0; i < 1000; i++ {
		l.Send(i, 100)
	}
	loop.Run()
	if got != 1000 {
		t.Fatalf("delivered %d/1000", got)
	}
	if l.Reordered < 400 || l.Reordered > 600 {
		t.Fatalf("reordered %d, want ~500", l.Reordered)
	}
}
