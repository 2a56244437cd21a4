package endpoint

import (
	"fmt"
	"testing"

	"github.com/tacktp/tack/internal/mac"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/transport"
)

// simServer is the in-simulation analogue of Endpoint's demux: packets are
// routed by ConnID to per-connection Receivers; an unknown connection id is
// accepted on SYN (the reply callback passed with the SYN becomes the
// connection's transmit path) and dropped otherwise. It runs entirely on the
// caller's sim.Loop, so many stations contending for one AP share a virtual
// clock.
type simServer struct {
	loop  *sim.Loop
	conns map[uint32]*transport.Receiver
}

func (s *simServer) onPacket(p *packet.Packet, reply func(*packet.Packet)) {
	r := s.conns[p.ConnID]
	if r == nil {
		if p.Type != packet.TypeSYN {
			return
		}
		r = transport.NewReceiver(s.loop, transport.Config{Mode: transport.ModeTACK, ConnID: p.ConnID}, reply)
		s.conns[p.ConnID] = r
	}
	r.OnPacket(p)
}

// multiflowGoodput runs `flows` unbounded TACK flows spread across
// `stas` client stations toward a demuxing AP-side simServer on a shared
// 802.11n medium (multiple connections per station mirror the
// multi-connection endpoint). It returns each flow's delivered bytes
// during the measurement window (after warmup).
func multiflowGoodput(t *testing.T, flows, stas int, warmup, measure sim.Time) []int64 {
	t.Helper()
	loop := sim.NewLoop(1)
	m := mac.NewMedium(loop, phy.Get(phy.Std80211n))
	ap := m.AddStation("ap", 4096)

	srv := &simServer{loop: loop, conns: map[uint32]*transport.Receiver{}}
	staFor := map[uint32]*mac.Station{}
	snds := map[uint32]*transport.Sender{}
	// The MAC delivers frames without a source handle, so both directions
	// route by ConnID.
	reply := func(p *packet.Packet) { ap.Send(staFor[p.ConnID], p.WireSize(), p) }
	ap.Receive = func(f *mac.Frame) { srv.onPacket(f.Payload.(*packet.Packet), reply) }

	stations := make([]*mac.Station, stas)
	for i := range stations {
		sta := m.AddStation(fmt.Sprintf("sta%d", i), 2048)
		sta.Receive = func(f *mac.Frame) {
			p := f.Payload.(*packet.Packet)
			if s := snds[p.ConnID]; s != nil {
				s.OnPacket(p)
			}
		}
		stations[i] = sta
	}
	for i := 0; i < flows; i++ {
		id := uint32(i + 1)
		sta := stations[i%stas]
		staFor[id] = sta
		cfg := transport.Config{Mode: transport.ModeTACK, ConnID: id}
		snd, err := transport.NewSender(loop, cfg, func(p *packet.Packet) {
			sta.Send(ap, p.WireSize(), p)
		})
		if err != nil {
			t.Fatal(err)
		}
		snds[id] = snd
		snd.Start()
	}

	loop.RunUntil(warmup)
	base := make([]int64, flows)
	for i := range base {
		if r := srv.conns[uint32(i+1)]; r != nil {
			base[i] = r.Delivered()
		} else {
			t.Fatalf("flow %d never established", i+1)
		}
	}
	loop.RunUntil(warmup + measure)
	out := make([]int64, flows)
	for i := range out {
		out[i] = srv.conns[uint32(i+1)].Delivered() - base[i]
	}
	return out
}

// jain computes Jain's fairness index (Σx)² / (n·Σx²) ∈ (0, 1].
func jain(xs []int64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += float64(x)
		sumSq += float64(x) * float64(x)
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// TestMultiFlowFairness80211n verifies that 8 concurrent TACK flows
// sharing a contended 802.11n medium (4 client stations, 2 connections
// each, all contending with the AP's ACK traffic) divide the channel
// fairly (Jain ≥ 0.9) and that their aggregate goodput stays within 15%
// of the single-flow ceiling — DCF collisions plus the shared reverse
// ACK path must not collapse throughput.
func TestMultiFlowFairness80211n(t *testing.T) {
	const (
		nFlows  = 8
		nStas   = 4
		warmup  = 4 * sim.Second
		measure = 40 * sim.Second
	)
	per := multiflowGoodput(t, nFlows, nStas, warmup, measure)
	single := multiflowGoodput(t, 1, 1, warmup, measure)[0]

	secs := float64(measure / sim.Second)
	var agg int64
	for i, b := range per {
		agg += b
		t.Logf("flow %d: %.2f Mbps", i+1, float64(b)*8/secs/1e6)
	}
	j := jain(per)
	aggMbps := float64(agg) * 8 / secs / 1e6
	singleMbps := float64(single) * 8 / secs / 1e6
	t.Logf("jain=%.4f aggregate=%.2f Mbps single-flow=%.2f Mbps", j, aggMbps, singleMbps)

	if j < 0.9 {
		t.Errorf("Jain fairness %.4f < 0.9 across %d flows", j, nFlows)
	}
	if float64(agg) < 0.85*float64(single) {
		t.Errorf("aggregate %.2f Mbps below 85%% of single-flow ceiling %.2f Mbps",
			aggMbps, singleMbps)
	}
}
