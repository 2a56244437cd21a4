package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/transport"
)

func init() {
	register("ext-split", runExtSplit)
	register("ext-reorder", runExtReorder)
	register("ext-pacing", runExtPacing)
	register("ext-wan", runExtWAN)
}

// runExtWAN is the simulator's twin of the benchmark's wan_bulk path:
// 100 Mbit/s, 10 ms each way, a 250 kB (one BDP) drop-tail queue and
// Gilbert–Elliott burst loss (≈ 1 %, two-packet bursts) on the data
// direction only, shared by two bulk flows with the endpoint's default
// TACK configuration. It makes the rate controller's overshoot into that
// queue deterministic (ROADMAP item 5): the retransmit ratio and offered
// load over capacity are the numbers to drive down.
func runExtWAN(opt Options) (*Result, error) {
	const rateBps = 100e6
	dur := opt.dur(20 * sim.Second)
	run := func(cfg transport.Config) (flows [2]flowMetrics, offered int64, link *netem.Link) {
		n, a, b := newNet(opt.seed())
		up, down := wanConfig{
			RateBps: rateBps, OWD: 10 * sim.Millisecond, QueueBytes: 250e3,
			Data: netem.Impairments{GE: netem.GilbertElliott{PEnterBad: 0.005, PExitBad: 0.5}},
		}.links()
		link, _ = WANPath(n, a, b, up, down)
		// Offered load: every datagram as it enters the data direction.
		n.Route(a, b, func(d any, size int) {
			offered += int64(size + packet.OverheadEthIPUDP)
			link.Send(d, size+packet.OverheadEthIPUDP)
		})
		fs := [2]*flow{dialFlow(n, a, b, cfg), dialFlow(n, a, b, cfg)}
		runTo(n, dur)
		for i, f := range fs {
			flows[i] = metricsOf(f, dur)
		}
		return flows, offered, link
	}
	tbl := stats.NewTable("Scheme", "Goodput Mbit/s", "Retx/DATA", "ACKs/DATA", "Offered/capacity", "Tail drops", "Burst drops")
	for _, arm := range []struct {
		name string
		cfg  transport.Config
	}{
		{"TCP-TACK", transport.Config{Mode: transport.ModeTACK}},
		{"TCP BBR", legacyBBRConfig()},
	} {
		flows, offered, link := run(arm.cfg)
		var goodput float64
		var data, retx, acks int
		for _, f := range flows {
			goodput += f.GoodputBps
			data += f.DataPackets
			retx += f.Retransmits
			acks += f.AcksSent
		}
		tbl.AddRow(arm.name, stats.Mbps(goodput),
			fmt.Sprintf("%.3f", float64(retx)/float64(data)),
			fmt.Sprintf("%.3f", float64(acks)/float64(data)),
			fmt.Sprintf("%.3f", float64(offered)*8/dur.Seconds()/rateBps),
			fmt.Sprintf("%d", link.Overflows), fmt.Sprintf("%d", link.Dropped))
	}
	notes := "ROADMAP item 5's exit for this path: retransmits ≤ 0.05 per DATA packet and offered load ≤ 1.05× capacity at ≥ 92 Mbit/s."
	return &Result{ID: "ext-wan", Title: "Extension: the benchmark's wan_bulk path in simulation (rate-control overshoot)", Table: tbl.String(), Notes: notes}, nil
}

// runExtSplit explores the §7 TCP-splitting discussion: an end-to-end
// TCP-TACK connection over WLAN+WAN versus a split connection terminated at
// the AP, reporting goodput and the proxy's unacknowledged backlog (the
// reliability cost of splitting).
func runExtSplit(opt Options) (*Result, error) {
	dur := opt.dur(20 * sim.Second)
	wan := wanConfig{RateBps: 500e6, OWD: 100 * sim.Millisecond}

	e2e := runHybridFlow(opt.seed(), phy.Std80211n, wan, tackConfig(), dur)
	split := runSplitFlow(opt.seed(), tackConfig(), wan, dur)

	tbl := stats.NewTable("Deployment", "Goodput Mbit/s", "Client RTTmin", "Proxy backlog (bytes)")
	tbl.AddRow("end-to-end TACK", stats.Mbps(e2e.GoodputBps), "(end-to-end)", "0")
	tbl.AddRow("split at AP", stats.Mbps(float64(split.delivered)*8/dur.Seconds()), split.clientRTTMin.String(),
		fmt.Sprintf("%d", split.backlog))
	notes := "§7 discussion: splitting shortens the client's control loop (local RTTmin) at the cost of proxy-held data that is not end-to-end acknowledged."
	return &Result{ID: "ext-split", Title: "Extension: TCP splitting at the access point (§7)", Table: tbl.String(), Notes: notes}, nil
}

// splitResult is what a split deployment's run leaves: whether the
// client's sender finished, bytes the proxy relayed and the server
// received, the client's RTTmin, and the proxy's backlog — bytes received
// from the client but not yet acknowledged by the server, the data at risk
// if the proxy fails (§7's reliability caveat).
type splitResult struct {
	clientDone                  bool
	relayed, delivered, backlog int64
	clientRTTMin                sim.Time
}

// runSplitFlow runs the TCP-splitting deployment the paper's §7 discusses
// for dur: client → (802.11n) → proxy → (WAN) → server, the client's leg
// built from cfg. The proxy, an endpoint at the access point, accepts the
// client's WLAN-side connection and relays its bytestream over a WAN-side
// TCP-TACK connection it dials app-paced: after every burst, the bytes its
// WLAN leg delivered since the last one go onto the WAN leg. The last-mile
// loop converges fast (small RTT), and the WAN connection runs its own
// control loop.
func runSplitFlow(seed int64, cfg transport.Config, wan wanConfig, dur sim.Time) (res splitResult) {
	n, cli, srv := newNet(seed)
	ap := n.Host()
	WLANPath(n, cli, ap, medium(n, phy.Std80211n))
	up, down := wan.links()
	WANPath(n, ap, srv, up, down)
	relayCfg := tackConfig()
	relayCfg.AppPaced = true
	proxy, server := newEndpoint(n, ap, relayCfg), newEndpoint(n, srv, tackConfig())
	wlanLeg := n.Dial(newEndpoint(n, cli, cfg), proxy.LocalAddr())
	wanLeg := n.Dial(proxy, server.LocalAddr())
	var in *endpoint.Conn
	_, err := n.RunUntil(dur, func() bool {
		if in == nil {
			in = n.Accept(proxy)
		}
		if in != nil && in.Receiver().Delivered() > res.relayed {
			wanLeg.Sender().AddBytes(in.Receiver().Delivered() - res.relayed)
			res.relayed = in.Receiver().Delivered()
		}
		return false
	})
	must(err)
	if out := n.Accept(server); out != nil {
		res.delivered = out.Receiver().Delivered()
	}
	res.backlog = res.relayed - int64(wanLeg.Sender().CumAcked())
	res.clientDone = wlanLeg.Sender().Done()
	res.clientRTTMin, _ = wlanLeg.Sender().RTTMin()
	return res
}

// runExtReorder reproduces the §7 reordering discussion: spurious
// retransmissions versus the reordering delay, with the fixed RTTmin/4
// settle delay and with the adaptive variant (the paper's future work).
func runExtReorder(opt Options) (*Result, error) {
	dur := opt.dur(30 * sim.Second)
	tbl := stats.NewTable("Reorder delay", "fixed-settle retx", "adaptive retx", "fixed Mbit/s", "adaptive Mbit/s")
	for _, d := range []sim.Time{2 * sim.Millisecond, 8 * sim.Millisecond, 15 * sim.Millisecond} {
		fr, fg := runReorderFlow(opt.seed(), false, d, dur)
		ar, ag := runReorderFlow(opt.seed(), true, d, dur)
		tbl.AddRow(d.String(), fmt.Sprintf("%d", fr), fmt.Sprintf("%d", ar),
			stats.Mbps(fg), stats.Mbps(ag))
	}
	notes := "§7: reordering within the settle delay is free; beyond it the fixed delay retransmits spuriously, while the adaptive delay (the paper's future work) backs off when duplicates appear."
	return &Result{ID: "ext-reorder", Title: "Extension: reordering tolerance and adaptive IACK delay (§7)", Table: tbl.String(), Notes: notes}, nil
}

// runReorderFlow measures one flow over a reordering path.
func runReorderFlow(seed int64, adaptive bool, reorderDelay sim.Time, dur sim.Time) (retx int, goodput float64) {
	cfg := tackConfig()
	cfg.AdaptiveSettle = adaptive
	m := runWANFlow(seed, wanConfig{
		RateBps: 50e6, OWD: 20 * sim.Millisecond, QueueBytes: 4 << 20,
		Data: netem.Impairments{ReorderRate: 0.05, ReorderDelay: reorderDelay},
	}, cfg, dur)
	return m.Retransmits, m.GoodputBps
}

// runExtPacing is the ablation bench for the paper's §5.3 send-pattern
// claim: pacing versus ACK-clocked bursts on a shallow-buffered path.
func runExtPacing(opt Options) (*Result, error) {
	dur := opt.dur(20 * sim.Second)
	run := func(disablePacing bool) flowMetrics {
		cfg := tackConfig()
		cfg.DisablePacing = disablePacing
		return runWANFlow(opt.seed(), wanConfig{
			RateBps: 50e6, OWD: 50 * sim.Millisecond, QueueBytes: 128 << 10,
		}, cfg, dur)
	}
	paced, burst := run(false), run(true)
	lossRate := func(m flowMetrics) float64 {
		if m.DataPackets == 0 {
			return 0
		}
		return float64(m.Retransmits) / float64(m.DataPackets)
	}
	tbl := stats.NewTable("Send pattern", "Goodput Mbit/s", "Retransmit rate", "95th pct OWD")
	tbl.AddRow("paced", stats.Mbps(paced.GoodputBps), stats.Pct(lossRate(paced)), paced.OWD95.String())
	tbl.AddRow("ACK-clocked bursts", stats.Mbps(burst.GoodputBps), stats.Pct(lossRate(burst)), burst.OWD95.String())
	notes := "§5.3: with TACK's low ACK frequency, each ACK releases a large burst; pacing smooths it. Expect the burst arm to lose more and queue deeper on a shallow buffer."
	return &Result{ID: "ext-pacing", Title: "Extension: pacing vs ACK-clocked bursts (§5.3 ablation)", Table: tbl.String(), Notes: notes}, nil
}
