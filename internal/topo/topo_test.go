package topo

import (
	"testing"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Millisecond }

// airUsed reports whether tr recorded a transmission on a medium.
func airUsed(tr *telemetry.Tracer) bool {
	for _, e := range tr.Events() {
		if e.Kind == telemetry.KindMACTx {
			return true
		}
	}
	return false
}

func TestWLANPathDelivers(t *testing.T) {
	loop := sim.NewLoop(1)
	tr := telemetry.New()
	path, _ := WLANPath(loop, WLANConfig{Standard: phy.Std80211n, Tracer: tr})
	flow, err := NewFlow(loop, transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 20}, path)
	if err != nil {
		t.Fatal(err)
	}
	flow.Start()
	loop.RunUntil(5 * sim.Second)
	if !flow.Sender.Done() {
		t.Fatalf("WLAN transfer incomplete: %d acked", flow.Sender.CumAcked())
	}
	if !airUsed(tr) {
		t.Fatal("medium never used")
	}
}

func TestWANPathDelivers(t *testing.T) {
	loop := sim.NewLoop(2)
	path, fwd, rev := WANPath(loop, WANConfig{RateBps: 50e6, OWD: ms(10)})
	flow, err := NewFlow(loop, transport.Config{Mode: transport.ModeLegacy, TransferBytes: 1 << 20}, path)
	if err != nil {
		t.Fatal(err)
	}
	flow.Start()
	loop.RunUntil(10 * sim.Second)
	if !flow.Sender.Done() {
		t.Fatal("WAN transfer incomplete")
	}
	if fwd.Delivered == 0 || rev.Delivered == 0 {
		t.Fatal("links unused")
	}
}

func TestHybridPathDelivers(t *testing.T) {
	loop := sim.NewLoop(3)
	tr := telemetry.New()
	path, _, apToSrv, _ := HybridPath(loop,
		WLANConfig{Standard: phy.Std80211g, Tracer: tr},
		WANConfig{RateBps: 100e6, OWD: ms(50)})
	flow, err := NewFlow(loop, transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 20}, path)
	if err != nil {
		t.Fatal(err)
	}
	flow.Start()
	// RTT floor is the WAN's 100 ms plus WLAN airtime; sample mid-flow
	// (the min filter is windowed, so post-completion queries go stale).
	loop.RunUntil(2 * sim.Second)
	if min, ok := flow.Sender.RTTMin(); !ok || min < ms(100) {
		t.Fatalf("RTTmin = %v,%v, want >= 100ms", min, ok)
	}
	loop.RunUntil(20 * sim.Second)
	if !flow.Sender.Done() {
		t.Fatalf("hybrid transfer incomplete: %d acked", flow.Sender.CumAcked())
	}
	// Data must traverse BOTH hops.
	if !airUsed(tr) || apToSrv.Delivered == 0 {
		t.Fatal("one of the hops was bypassed")
	}
}

func TestTwoFlowsShareOnePath(t *testing.T) {
	loop := sim.NewLoop(4)
	path, _, _ := WANPath(loop, WANConfig{RateBps: 50e6, OWD: ms(10)})
	c1 := transport.Config{Mode: transport.ModeTACK, ConnID: 1}
	c2 := transport.Config{Mode: transport.ModeLegacy, CC: "cubic", ConnID: 2}
	f1, err := NewFlow(loop, c1, path)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFlow(loop, c2, path)
	if err != nil {
		t.Fatal(err)
	}
	f1.Start()
	f2.Start()
	loop.RunUntil(5 * sim.Second)
	d1, d2 := f1.Receiver.Delivered(), f2.Receiver.Delivered()
	if d1 == 0 || d2 == 0 {
		t.Fatalf("flows starved: %d / %d", d1, d2)
	}
	// Both flows share a 50 Mbit/s link: combined goodput must respect it.
	total := float64(d1+d2) * 8 / 5
	if total > 52e6 {
		t.Fatalf("combined goodput %.1f Mbit/s exceeds the link", total/1e6)
	}
}

func TestQueueFramesDefault(t *testing.T) {
	if (WLANConfig{}).queueFrames() != 1<<18 {
		t.Fatal("default queue depth changed unexpectedly")
	}
	if (WLANConfig{QueueFrames: 7}).queueFrames() != 7 {
		t.Fatal("explicit queue depth ignored")
	}
}
