package experiments

import (
	"testing"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/telemetry"
	"github.com/tacktp/tack/internal/transport"
)

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
	n, a, b := newNet(1)
	tr := telemetry.New()
	m := medium(n, phy.Std80211n)
	m.Tracer = tr
	WLANPath(n, a, b, m)
	f := dialFlow(n, a, b, transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 20})
	runTo(n, 5*sim.Second)
	if !f.sender().Done() {
		t.Fatalf("WLAN transfer incomplete: %d acked", f.sender().CumAcked())
	}
	if !airUsed(tr) {
		t.Fatal("medium never used")
	}
}

func TestWANPathDelivers(t *testing.T) {
	n, a, b := newNet(2)
	up, down := wanConfig{RateBps: 50e6, OWD: ms(10)}.links()
	fwd, rev := WANPath(n, a, b, up, down)
	f := dialFlow(n, a, b, transport.Config{Mode: transport.ModeLegacy, TransferBytes: 1 << 20})
	runTo(n, 10*sim.Second)
	if !f.sender().Done() {
		t.Fatal("WAN transfer incomplete")
	}
	if fwd.Delivered == 0 || rev.Delivered == 0 {
		t.Fatal("links unused")
	}
}

func TestHybridPathDelivers(t *testing.T) {
	n, a, b := newNet(3)
	tr := telemetry.New()
	m := medium(n, phy.Std80211g)
	m.Tracer = tr
	up, down := wanConfig{RateBps: 100e6, OWD: ms(50)}.links()
	HybridPath(n, a, b, m, up, down)
	f := dialFlow(n, a, b, transport.Config{Mode: transport.ModeTACK, TransferBytes: 1 << 20})
	// RTT floor is the WAN's 100 ms plus WLAN airtime; sample mid-flow
	// (the min filter is windowed, so post-completion queries go stale).
	runTo(n, 2*sim.Second)
	if min, ok := f.sender().RTTMin(); !ok || min < ms(100) {
		t.Fatalf("RTTmin = %v,%v, want >= 100ms", min, ok)
	}
	runTo(n, 20*sim.Second)
	if !f.sender().Done() {
		t.Fatalf("hybrid transfer incomplete: %d acked", f.sender().CumAcked())
	}
	// Data must traverse BOTH hops: the medium, and the WAN to the server.
	if !airUsed(tr) || f.delivered() != 1<<20 {
		t.Fatal("one of the hops was bypassed")
	}
}

func TestTwoFlowsShareOnePath(t *testing.T) {
	n, a, b := newNet(4)
	up, down := wanConfig{RateBps: 50e6, OWD: ms(10)}.links()
	WANPath(n, a, b, up, down)
	f1 := dialFlow(n, a, b, transport.Config{Mode: transport.ModeTACK})
	f2 := dialFlow(n, a, b, transport.Config{Mode: transport.ModeLegacy, CC: "cubic"})
	runTo(n, 5*sim.Second)
	d1, d2 := f1.delivered(), f2.delivered()
	if d1 == 0 || d2 == 0 {
		t.Fatalf("flows starved: %d / %d", d1, d2)
	}
	// Both flows share a 50 Mbit/s link: combined goodput must respect it.
	total := float64(d1+d2) * 8 / 5
	if total > 52e6 {
		t.Fatalf("combined goodput %.1f Mbit/s exceeds the link", total/1e6)
	}
}

func TestSplitFlowRelays(t *testing.T) {
	res := runSplitFlow(9, transport.Config{Mode: transport.ModeTACK, TransferBytes: 2 << 20},
		wanConfig{RateBps: 200e6, OWD: ms(100)}, 20*sim.Second)
	if !res.clientDone {
		t.Fatalf("WLAN leg incomplete: proxy relayed %d bytes", res.relayed)
	}
	if res.relayed != 2<<20 {
		t.Fatalf("proxy relayed %d bytes, want all", res.relayed)
	}
	if res.delivered != 2<<20 {
		t.Fatalf("server delivered %d, want all", res.delivered)
	}
	if res.backlog != 0 {
		t.Fatalf("proxy still holds %d unacknowledged bytes", res.backlog)
	}
}

func TestSplitFlowWLANRTTIsLocal(t *testing.T) {
	// The client's RTT estimate must reflect only the WLAN leg, not the
	// 200 ms WAN (that's the point of splitting).
	res := runSplitFlow(10, transport.Config{Mode: transport.ModeTACK},
		wanConfig{RateBps: 200e6, OWD: ms(100)}, 2*sim.Second)
	if res.clientRTTMin == 0 {
		t.Fatal("no client RTT estimate")
	}
	if res.clientRTTMin > ms(20) {
		t.Fatalf("client RTTmin = %v, want local (WLAN-only) scale", res.clientRTTMin)
	}
}
