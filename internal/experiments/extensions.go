package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/topo"
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
	run := func(cfg transport.Config) (flows [2]flowMetrics, offered int64, link *netem.Link, err error) {
		loop := sim.NewLoop(opt.seed())
		path, up, _ := topo.WANPath(loop, topo.WANConfig{
			RateBps: rateBps, OWD: 10 * sim.Millisecond, QueueBytes: 250e3,
			Data: netem.Impairments{GE: netem.GilbertElliott{PEnterBad: 0.005, PExitBad: 0.5}},
		})
		send := path.SendA
		path.SendA = func(p *packet.Packet) { offered += int64(p.WireSize()); send(p) }
		var fs [2]*topo.Flow
		for i := range fs {
			cfg.ConnID = uint32(i + 1)
			if fs[i], err = topo.NewFlow(loop, cfg, path); err != nil {
				return flows, 0, nil, err
			}
			fs[i].Start()
		}
		loop.RunUntil(dur)
		for i, f := range fs {
			flows[i] = metricsOf(f, dur)
		}
		return flows, offered, up, nil
	}
	tbl := stats.NewTable("Scheme", "Goodput Mbit/s", "Retx/DATA", "ACKs/DATA", "Offered/capacity", "Tail drops", "Burst drops")
	for _, arm := range []struct {
		name string
		cfg  transport.Config
	}{
		{"TCP-TACK", transport.Config{Mode: transport.ModeTACK}},
		{"TCP BBR", legacyBBRConfig()},
	} {
		flows, offered, link, err := run(arm.cfg)
		if err != nil {
			return nil, err
		}
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
	wlan := topo.WLANConfig{Standard: phy.Std80211n}
	wan := topo.WANConfig{RateBps: 500e6, OWD: 100 * sim.Millisecond}

	e2e, err := runHybridFlow(opt.seed(), wlan, wan, tackConfig(), dur)
	if err != nil {
		return nil, err
	}

	loop := sim.NewLoop(opt.seed())
	sf, err := topo.NewSplitFlow(loop, tackConfig(), tackConfig(), wlan, wan)
	if err != nil {
		return nil, err
	}
	sf.Start()
	loop.RunUntil(dur)
	splitGoodput := float64(sf.Server.Delivered()) * 8 / dur.Seconds()
	clientMin, _ := sf.Client.RTTMin()

	tbl := stats.NewTable("Deployment", "Goodput Mbit/s", "Client RTTmin", "Proxy backlog (bytes)")
	tbl.AddRow("end-to-end TACK", stats.Mbps(e2e.GoodputBps), "(end-to-end)", "0")
	tbl.AddRow("split at AP", stats.Mbps(splitGoodput), clientMin.String(),
		fmt.Sprintf("%d", sf.ProxyBacklog()))
	notes := "§7 discussion: splitting shortens the client's control loop (local RTTmin) at the cost of proxy-held data that is not end-to-end acknowledged."
	return &Result{ID: "ext-split", Title: "Extension: TCP splitting at the access point (§7)", Table: tbl.String(), Notes: notes}, nil
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
	loop := sim.NewLoop(seed)
	path, _, _ := topo.WANPath(loop, topo.WANConfig{
		RateBps: 50e6, OWD: 20 * sim.Millisecond, QueueBytes: 4 << 20,
		Data: netem.Impairments{ReorderRate: 0.05, ReorderDelay: reorderDelay},
	})
	cfg := tackConfig()
	cfg.AdaptiveSettle = adaptive
	flow, err := topo.NewFlow(loop, cfg, path)
	if err != nil {
		panic(err)
	}
	flow.Start()
	loop.RunUntil(dur)
	return flow.Sender.Stats.Retransmits, float64(flow.Receiver.Delivered()) * 8 / dur.Seconds()
}

// runExtPacing is the ablation bench for the paper's §5.3 send-pattern
// claim: pacing versus ACK-clocked bursts on a shallow-buffered path.
func runExtPacing(opt Options) (*Result, error) {
	dur := opt.dur(20 * sim.Second)
	run := func(disablePacing bool) (flowMetrics, error) {
		cfg := tackConfig()
		cfg.DisablePacing = disablePacing
		m, _, err := runWANFlow(opt.seed(), topo.WANConfig{
			RateBps: 50e6, OWD: 50 * sim.Millisecond, QueueBytes: 128 << 10,
		}, cfg, dur)
		return m, err
	}
	paced, err := run(false)
	if err != nil {
		return nil, err
	}
	burst, err := run(true)
	if err != nil {
		return nil, err
	}
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
