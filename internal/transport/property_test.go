package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

// pathConditions is a randomized network environment for the end-to-end
// property test.
type pathConditions struct {
	RateMbps    uint8 // 5..60 Mbit/s
	OwdMs       uint8 // 1..80 ms
	DataLossPct uint8 // 0..8%
	AckLossPct  uint8 // 0..8%
	ReorderPct  uint8 // 0..5%
	QueueKB     uint8 // 64..512 KiB
	LegacyMode  bool
	RichTACK    bool
	Adaptive    bool
	Seed        int64
}

func (c pathConditions) normalize() pathConditions {
	c.RateMbps = 5 + c.RateMbps%56
	c.OwdMs = 1 + c.OwdMs%80
	c.DataLossPct = c.DataLossPct % 9
	c.AckLossPct = c.AckLossPct % 9
	c.ReorderPct = c.ReorderPct % 6
	c.QueueKB = 64 + c.QueueKB%192
	return c
}

// TestQuickEndToEndDelivery is the repository's failure-injection property
// test: under arbitrary (bounded) loss, reordering, rate, delay and
// protocol-mode combinations, a bounded stream must be delivered exactly
// and completely within a generous deadline.
func TestQuickEndToEndDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("long property test")
	}
	const size = 256 << 10
	f := func(raw pathConditions) bool {
		c := raw.normalize()
		loop := sim.NewLoop(c.Seed)
		cfg := Config{TransferBytes: size, RichTACK: c.RichTACK, AdaptiveSettle: c.Adaptive}
		if c.LegacyMode {
			cfg.Mode = ModeLegacy
		} else {
			cfg.Mode = ModeTACK
		}
		var snd *Sender
		var rcv *Receiver
		fwdCfg := netem.Config{
			RateBps:    float64(c.RateMbps) * 1e6,
			Delay:      sim.Time(c.OwdMs) * sim.Millisecond,
			QueueBytes: int(c.QueueKB) << 10,
			Impair: netem.Impairments{
				LossRate:    float64(c.DataLossPct) / 100,
				ReorderRate: float64(c.ReorderPct) / 100,
			},
		}
		revCfg := netem.Config{
			RateBps: float64(c.RateMbps) * 1e6,
			Delay:   sim.Time(c.OwdMs) * sim.Millisecond,
			Impair:  netem.Impairments{LossRate: float64(c.AckLossPct) / 100},
		}
		fwd := netem.NewLink(loop, fwdCfg, func(pl any, n int) { rcv.OnPacket(pl.(*packet.Packet)) })
		rev := netem.NewLink(loop, revCfg, func(pl any, n int) { snd.OnPacket(pl.(*packet.Packet)) })
		var err error
		snd, err = NewSender(loop, cfg, func(p *packet.Packet) { fwd.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP) })
		if err != nil {
			return false
		}
		rcv = NewReceiver(loop, cfg, func(p *packet.Packet) { rev.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP) })
		snd.Start()
		loop.RunUntil(180 * sim.Second)
		if !snd.Done() {
			t.Logf("stall: %+v acked=%d retx=%d to=%d", c, snd.CumAcked(), snd.Stats.Retransmits, snd.Stats.Timeouts)
			return false
		}
		if rcv.Delivered() != size {
			t.Logf("delivery mismatch: %+v delivered=%d", c, rcv.Delivered())
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(77))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
