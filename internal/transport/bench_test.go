package transport

import (
	"runtime"
	"testing"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
)

// benchTransfer measures the simulator throughput of a full 8 MiB transfer
// (events per wall-second is the interesting number; b.N scales repeats).
func benchTransfer(b *testing.B, cfg Config, loss float64) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loop := sim.NewLoop(int64(i + 1))
		var snd *Sender
		var rcv *Receiver
		fwdCfg, revCfg := netem.Symmetric(100e6, 20*sim.Millisecond, 0, loss, 0)
		fwd := netem.NewLink(loop, fwdCfg, func(pl any, n int) { rcv.OnPacket(pl.(*packet.Packet)) })
		rev := netem.NewLink(loop, revCfg, func(pl any, n int) { snd.OnPacket(pl.(*packet.Packet)) })
		var err error
		cfg.TransferBytes = 8 << 20
		snd, err = NewSender(loop, cfg, func(p *packet.Packet) { fwd.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP) })
		if err != nil {
			b.Fatal(err)
		}
		rcv = NewReceiver(loop, cfg, func(p *packet.Packet) { rev.Send(p, p.EncodedLen()+packet.OverheadEthIPUDP) })
		snd.Start()
		loop.RunUntil(60 * sim.Second)
		if !snd.Done() {
			b.Fatalf("transfer incomplete: %d bytes acked", snd.CumAcked())
		}
		b.SetBytes(8 << 20)
	}
}

// BenchmarkTransferTACKClean measures a clean-path TCP-TACK transfer.
func BenchmarkTransferTACKClean(b *testing.B) {
	benchTransfer(b, Config{Mode: ModeTACK, RichTACK: true}, 0)
}

// BenchmarkTransferTACKLossy measures a 1%-loss TCP-TACK transfer
// (exercises IACK recovery and rich TACK repetition).
func BenchmarkTransferTACKLossy(b *testing.B) {
	benchTransfer(b, Config{Mode: ModeTACK, RichTACK: true}, 0.01)
}

// BenchmarkTransferLegacyClean measures the legacy-TCP baseline.
func BenchmarkTransferLegacyClean(b *testing.B) {
	benchTransfer(b, Config{Mode: ModeLegacy}, 0)
}

// BenchmarkTransferLegacyLossy measures legacy SACK/FACK recovery.
func BenchmarkTransferLegacyLossy(b *testing.B) {
	benchTransfer(b, Config{Mode: ModeLegacy}, 0.01)
}

// enginePair wires a Sender and a Receiver back to back on one virtual
// clock, each packet reaching the other half owd later — the shape of the
// benchmark ladder's engine rung. onAck, when set, sees every packet on its
// way into the sender.
func enginePair(t *testing.T, cfg Config, owd sim.Time, onAck func(*Sender, *packet.Packet)) (*sim.Loop, *Sender, *Receiver) {
	loop := sim.NewLoop(1)
	var snd *Sender
	var rcv *Receiver
	snd, err := NewSender(loop, cfg, func(p *packet.Packet) {
		loop.After(owd, func() { rcv.OnPacket(p) })
	})
	if err != nil {
		t.Fatal(err)
	}
	rcv = NewReceiver(loop, cfg, func(p *packet.Packet) {
		loop.After(owd, func() {
			if onAck != nil {
				onAck(snd, p)
			}
			snd.OnPacket(p)
		})
	})
	snd.Start()
	return loop, snd, rcv
}

// TestEnginePairAllocsPerDataPacket ratchets the engine's allocation budget
// as TestCodecZeroAllocs does the codec's: a sender–receiver pair on a clean
// path may allocate 3.1 objects per DATA packet — the sender's outbound
// Packet, and the in-sim path's delivery closure and loop event; the send
// buffer, the receiver and ack processing round to none. The number goes
// down, never up.
func TestEnginePairAllocsPerDataPacket(t *testing.T) {
	const size, budget = 16 << 20, 3.1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop, snd, rcv := enginePair(t, Config{Mode: ModeTACK, RichTACK: true, TransferBytes: size}, ms(10), nil)
	for !snd.Done() && loop.Now() < 600*sim.Second && loop.Step() {
	}
	runtime.ReadMemStats(&after)
	if !snd.Done() || rcv.Delivered() != size {
		t.Fatalf("transfer incomplete: %d of %d bytes delivered", rcv.Delivered(), size)
	}
	perPkt := float64(after.Mallocs-before.Mallocs) / float64(snd.Stats.DataPackets)
	t.Logf("%.3f mallocs per DATA packet over %d packets", perPkt, snd.Stats.DataPackets)
	if perPkt > budget {
		t.Errorf("engine pair allocates %.3f objects per DATA packet, budget %.1f", perPkt, budget)
	}
}
