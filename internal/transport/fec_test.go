package transport

import (
	"testing"

	"github.com/tacktp/tack/internal/fec"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stream"
)

// newFECHarness wires a stream-multiplexed flow over a forward link with
// arbitrary impairments (burst loss, reordering, duplication) and a clean
// reverse path.
func newFECHarness(t *testing.T, seed int64, cfg Config, rateBps float64, owd sim.Time, imp netem.Impairments) *harness {
	t.Helper()
	loop := sim.NewLoop(seed)
	h := &harness{loop: loop}
	// Deep queues so the only losses are the configured impairments
	// (slow-start bursts otherwise overflow the default queue and the
	// "lossless" assertions see real drops).
	fwdCfg := netem.Config{RateBps: rateBps, Delay: owd, QueueBytes: 4 << 20, Impair: imp}
	revCfg := netem.Config{RateBps: rateBps, Delay: owd, QueueBytes: 4 << 20}
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

// openFECStream opens one FEC-protected stream, writes size patterned
// bytes, and closes it.
func openFECStream(t *testing.T, h *harness, opts fec.Options, size int) map[uint32]int {
	t.Helper()
	s, err := h.snd.Streams().Open(stream.Options{FEC: opts})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	streamPattern(s.ID(), 0, data)
	if _, err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return map[uint32]int{s.ID(): size}
}

// A FEC-protected stream over Gilbert–Elliott burst loss must deliver its
// bytes intact with the decoder doing real recoveries, and every recovered
// packet must be acknowledged as received — no loss report, no
// retransmission for it.
func TestFECStreamRecoversBurstLoss(t *testing.T) {
	cfg := streamCfg(stream.Config{
		RecvWindow: 512 << 10, MaxStreams: 4, SendBuffer: 1 << 20,
	})
	imp := netem.Impairments{GE: netem.GilbertElliott{PEnterBad: 0.02, PExitBad: 0.5}}
	h := newFECHarness(t, 21, cfg, 20e6, ms(20), imp)
	sizes := openFECStream(t, h, fec.Options{
		Scheme: fec.SchemeRS, GroupLen: 8, MaxOverhead: 0.25, Adaptive: true,
	}, 512<<10)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.run(30 * sim.Second)
	sink.verify(sizes)
	if h.snd.Stats.FECRepairsSent == 0 {
		t.Fatal("FEC stream sent no repairs")
	}
	if h.rcv.Stats.FECRecovered == 0 {
		t.Errorf("burst loss (%d packets dropped) but no FEC recoveries",
			h.fwd.Dropped)
	}
	if h.rcv.Stats.FECRecoveredBytes == 0 {
		t.Error("recoveries counted but no recovered bytes")
	}
	// Repairs ride outside the data packet-number space: the receiver's
	// largest seen PKT.SEQ can never exceed what DATA transmissions
	// consumed.
	if h.snd.Stats.FECRepairsSent > 0 && h.snd.Stats.DataPackets == 0 {
		t.Error("repairs without data")
	}
}

// Reordering and duplication around the repairs: repairs racing ahead of
// their source packets and duplicated repairs must neither panic nor
// corrupt the stream, and duplicate repairs for complete groups count as
// wasted rather than delivering twice.
func TestFECRecoveryUnderReorderAndDuplication(t *testing.T) {
	cfg := streamCfg(stream.Config{
		RecvWindow: 512 << 10, MaxStreams: 4, SendBuffer: 1 << 20,
	})
	imp := netem.Impairments{
		GE:            netem.GilbertElliott{PEnterBad: 0.015, PExitBad: 0.5},
		DuplicateRate: 0.05,
		ReorderRate:   0.10,
		ReorderDelay:  4 * sim.Millisecond,
	}
	h := newFECHarness(t, 22, cfg, 20e6, ms(15), imp)
	sizes := openFECStream(t, h, fec.Options{
		Scheme: fec.SchemeRS, GroupLen: 10, MaxOverhead: 0.3, Adaptive: true,
	}, 512<<10)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.run(30 * sim.Second)
	sink.verify(sizes)
	if h.fwd.Duplicated == 0 || h.fwd.Reordered == 0 {
		t.Fatalf("impairments not exercised: %+v", *h.fwd)
	}
	total := h.rcv.Stats.FECRepairsUsed + h.rcv.Stats.FECRepairsWasted +
		h.rcv.Stats.FECDropped
	if total == 0 {
		t.Error("no repair was accounted used, wasted, or dropped")
	}
}

// On a clean link every group arrives complete, so every repair is pure
// waste: counted as such, zero recoveries, and no duplicate delivery.
func TestFECCompleteGroupWastesRepairs(t *testing.T) {
	const size = 256 << 10
	cfg := streamCfg(stream.Config{
		RecvWindow: 512 << 10, MaxStreams: 4, SendBuffer: 1 << 20,
	})
	h := newFECHarness(t, 23, cfg, 20e6, ms(10), netem.Impairments{})
	sizes := openFECStream(t, h, fec.Options{
		Scheme: fec.SchemeXOR, GroupLen: 8, MaxOverhead: 0.2,
	}, size)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.run(10 * sim.Second)
	sink.verify(sizes) // exact size: recovery never double-delivered
	if h.snd.Stats.FECRepairsSent == 0 {
		t.Fatal("no repairs sent")
	}
	if h.rcv.Stats.FECRecovered != 0 {
		t.Errorf("clean link but %d recoveries", h.rcv.Stats.FECRecovered)
	}
	if h.rcv.Stats.FECRepairsWasted == 0 {
		t.Error("complete groups but no repairs counted wasted")
	}
	if h.rcv.Stats.FECRepairsWasted != h.rcv.Stats.FECRepairsReceived {
		t.Errorf("wasted %d != received %d on a lossless link",
			h.rcv.Stats.FECRepairsWasted, h.rcv.Stats.FECRepairsReceived)
	}
}

// Hostile REPAIR input — bogus group ids, conflicting geometry, oversize
// payloads, zero-byte bodies — must degrade to drop counters while the
// legitimate transfer underneath completes untouched.
func TestFECHostileRepairInjection(t *testing.T) {
	cfg := streamCfg(stream.Config{
		RecvWindow: 512 << 10, MaxStreams: 4, SendBuffer: 1 << 20,
	})
	h := newFECHarness(t, 24, cfg, 20e6, ms(10), netem.Impairments{})
	sizes := openFECStream(t, h, fec.Options{
		Scheme: fec.SchemeRS, GroupLen: 8, MaxOverhead: 0.25,
	}, 128<<10)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())

	hostile := []*packet.Packet{
		// Unknown scheme.
		{Type: packet.TypeRepair, ConnID: cfg.ConnID, FECGroup: 9999,
			FECGroupLen: 8, FECRepairCount: 2, FECIndex: 0, FECScheme: 99,
			Payload: make([]byte, 64)},
		// Oversize symbol (beyond the decoder's per-symbol cap).
		{Type: packet.TypeRepair, ConnID: cfg.ConnID, FECGroup: 9998,
			FECGroupLen: 8, FECRepairCount: 1, FECIndex: 0,
			FECScheme: uint8(fec.SchemeRS), Payload: make([]byte, 1<<20)},
		// Bogus group id with plausible geometry: parks harmlessly and ages
		// out of the bounded group window.
		{Type: packet.TypeRepair, ConnID: cfg.ConnID, FECGroup: 1 << 30,
			FECGroupLen: 4, FECRepairCount: 1, FECIndex: 0,
			FECScheme: uint8(fec.SchemeXOR), Payload: make([]byte, 40)},
	}
	h.loop.At(50*sim.Millisecond, func() {
		for _, p := range hostile {
			h.rcv.OnPacket(p)
		}
		// Conflicting geometry for a live group: first repair pins it, a
		// second with different k must be dropped, not believed.
		h.rcv.OnPacket(&packet.Packet{Type: packet.TypeRepair, ConnID: cfg.ConnID,
			FECGroup: 7777, FECGroupLen: 6, FECRepairCount: 2, FECIndex: 0,
			FECScheme: uint8(fec.SchemeRS), Payload: make([]byte, 48)})
		h.rcv.OnPacket(&packet.Packet{Type: packet.TypeRepair, ConnID: cfg.ConnID,
			FECGroup: 7777, FECGroupLen: 3, FECRepairCount: 2, FECIndex: 1,
			FECScheme: uint8(fec.SchemeRS), Payload: make([]byte, 48)})
	})
	h.run(10 * sim.Second)
	sink.verify(sizes)
	if h.rcv.Stats.FECDropped == 0 {
		t.Error("hostile repairs injected but none counted dropped")
	}
	if h.rcv.Stats.FECRecovered != 0 {
		t.Errorf("hostile input produced %d phantom recoveries", h.rcv.Stats.FECRecovered)
	}
}

// Repairs must never be acknowledged or retransmitted: a lossless FEC run
// raises no loss reports and the sender's retransmit counter stays zero
// even though repair packets flow continuously.
func TestFECRepairsAreFireAndForget(t *testing.T) {
	cfg := streamCfg(stream.Config{
		RecvWindow: 512 << 10, MaxStreams: 4, SendBuffer: 1 << 20,
	})
	h := newFECHarness(t, 25, cfg, 20e6, ms(10), netem.Impairments{})
	sizes := openFECStream(t, h, fec.Options{
		Scheme: fec.SchemeRS, GroupLen: 8, MaxOverhead: 0.25,
	}, 256<<10)
	sink := newStreamSink(t, h.loop, h.rcv.Streams())
	h.run(10 * sim.Second)
	sink.verify(sizes)
	if h.snd.Stats.FECRepairsSent == 0 {
		t.Fatal("no repairs sent")
	}
	// Tail loss probes are retransmissions by mechanism but not loss
	// recovery; only the excess would indicate repairs confusing the
	// loss machinery.
	if n := h.snd.Stats.Retransmits - h.snd.Stats.TLPProbes; n != 0 {
		t.Errorf("lossless run retransmitted %d segments beyond tail probes", n)
	}
	if h.rcv.Stats.LossIACKs != 0 {
		t.Errorf("repair traffic raised %d loss IACKs", h.rcv.Stats.LossIACKs)
	}
}
