package topo

import (
	"testing"

	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/transport"
)

func TestSplitFlowRelays(t *testing.T) {
	loop := sim.NewLoop(9)
	cfgWLAN := transport.Config{Mode: transport.ModeTACK, TransferBytes: 2 << 20}
	cfgWAN := transport.Config{Mode: transport.ModeTACK}
	sf, err := NewSplitFlow(loop, cfgWLAN, cfgWAN,
		WLANConfig{Standard: phy.Std80211n},
		WANConfig{RateBps: 200e6, OWD: ms(100)})
	if err != nil {
		t.Fatal(err)
	}
	sf.Start()
	loop.RunUntil(20 * sim.Second)
	if !sf.Client.Done() {
		t.Fatalf("WLAN leg incomplete: %d acked", sf.Client.CumAcked())
	}
	if sf.relayed != 2<<20 {
		t.Fatalf("proxy relayed %d bytes, want all", sf.relayed)
	}
	if got := sf.Server.Delivered(); got != 2<<20 {
		t.Fatalf("server delivered %d, want all", got)
	}
	if sf.ProxyBacklog() != 0 {
		t.Fatalf("proxy still holds %d unacknowledged bytes", sf.ProxyBacklog())
	}
}

func TestSplitFlowWLANRTTIsLocal(t *testing.T) {
	// The client's RTT estimate must reflect only the WLAN leg, not the
	// 200 ms WAN (that's the point of splitting).
	loop := sim.NewLoop(10)
	cfgWLAN := transport.Config{Mode: transport.ModeTACK}
	cfgWAN := transport.Config{Mode: transport.ModeTACK}
	sf, err := NewSplitFlow(loop, cfgWLAN, cfgWAN,
		WLANConfig{Standard: phy.Std80211n},
		WANConfig{RateBps: 200e6, OWD: ms(100)})
	if err != nil {
		t.Fatal(err)
	}
	sf.Start()
	loop.RunUntil(2 * sim.Second)
	min, ok := sf.Client.RTTMin()
	if !ok {
		t.Fatal("no client RTT estimate")
	}
	if min > ms(20) {
		t.Fatalf("client RTTmin = %v, want local (WLAN-only) scale", min)
	}
}
