package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/ackpolicy"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
)

func init() {
	register("fig1", runFig1)
	register("fig9a", runFig9a)
	register("fig10a", runFig10a)
	register("fig10b", runFig10b)
}

// wlanPair runs TCP-TACK and TCP-BBR over a WLAN + high-rate WAN hybrid
// (the WAN hop adds the experiment's RTT without throttling), returning
// both flows' metrics.
func wlanPair(opt Options, std phy.Standard, rtt sim.Time, dur sim.Time) (tack, bbr flowMetrics) {
	wan := wanConfig{RateBps: 2e9, OWD: rtt / 2}
	return runHybridFlow(opt.seed(), std, wan, tackConfig(), dur), runHybridFlow(opt.seed(), std, wan, legacyBBRConfig(), dur)
}

// runFig1 reproduces Figure 1 (and the ACK-reduction headline): percentage
// of ACKs reduced and goodput improved, TCP-TACK over TCP-BBR, per 802.11
// standard.
func runFig1(opt Options) (*Result, error) {
	dur := opt.dur(12 * sim.Second)
	tbl := stats.NewTable("Link", "ACKs reduced", "Goodput improved", "TACK Mbit/s", "BBR Mbit/s")
	notes := ""
	for _, std := range phy.All() {
		// The paper's public-room RTT ranged 4-200 ms; 80 ms is a
		// representative midpoint (and puts every standard in the regime
		// the paper's Figure 8 analyzes).
		tack, bbr := wlanPair(opt, std, 80*sim.Millisecond, dur)
		ackRed := 1 - float64(tack.AcksSent)/float64(bbr.AcksSent)
		gain := tack.GoodputBps/bbr.GoodputBps - 1
		tbl.AddRow(std.String(), stats.Pct(ackRed), stats.Pct(gain),
			stats.Mbps(tack.GoodputBps), stats.Mbps(bbr.GoodputBps))
	}
	notes = "Paper: ACK reduction 90.5/95.4/99.4/99.8%, goodput gain 20.0/26.3/27.7/28.1% (b/g/n/ac); both grow with PHY rate."
	return &Result{ID: "fig1", Title: "TCP-TACK vs TCP-BBR in WLAN (preview headline)", Table: tbl.String(), Notes: notes}, nil
}

// runFig9a reproduces Figure 9(a): absolute goodput improvement
// (TACK − TCP) per standard across RTTs.
func runFig9a(opt Options) (*Result, error) {
	dur := opt.dur(10 * sim.Second)
	tbl := stats.NewTable("Link", "RTT", "Improvement Mbit/s", "TACK Mbit/s", "BBR Mbit/s")
	rtts := []sim.Time{10 * sim.Millisecond, 80 * sim.Millisecond, 200 * sim.Millisecond}
	if opt.Quick {
		rtts = rtts[:1]
	}
	for _, std := range phy.All() {
		for _, rtt := range rtts {
			tack, bbr := wlanPair(opt, std, rtt, dur)
			tbl.AddRow(std.String(), rtt.String(),
				stats.Mbps(tack.GoodputBps-bbr.GoodputBps),
				stats.Mbps(tack.GoodputBps), stats.Mbps(bbr.GoodputBps))
		}
	}
	return &Result{
		ID: "fig9a", Title: "Goodput improvement grows with PHY rate, insensitive to RTT",
		Table: tbl.String(),
		Notes: "Paper shape: faster links enlarge the absolute improvement; latency barely moves it.",
	}, nil
}

// runFig10a reproduces Figure 10(a): actual goodput of TCP-TACK vs TCP BBR
// per 802.11 standard (paper: 6/24/198/556 vs 5/19/155/434 Mbit/s).
func runFig10a(opt Options) (*Result, error) {
	dur := opt.dur(12 * sim.Second)
	tbl := stats.NewTable("Link", "TCP-TACK Mbit/s", "TCP BBR Mbit/s", "Gain")
	for _, std := range phy.All() {
		tack, bbr := wlanPair(opt, std, 20*sim.Millisecond, dur)
		tbl.AddRow(std.String(), stats.Mbps(tack.GoodputBps), stats.Mbps(bbr.GoodputBps),
			stats.Pct(tack.GoodputBps/bbr.GoodputBps-1))
	}
	return &Result{
		ID: "fig10a", Title: "Actual goodput: TCP-TACK vs TCP BBR over WLAN",
		Table: tbl.String(),
		Notes: "Paper: 20–28.1% gain, growing with PHY rate.",
	}, nil
}

// runFig10b reproduces Figure 10(b): *actual* goodput of legacy TCP with
// ACK thinning (L = 1,2,4,8,16) against TCP-TACK, over 802.11n with a
// ρ = 0.1% impairment and RTT 80 ms. Legacy TCP's control loops degrade as
// ACKs thin; TACK's co-design does not.
func runFig10b(opt Options) (*Result, error) {
	dur := opt.dur(12 * sim.Second)
	wlan := phy.Std80211n
	wan := wanConfig{RateBps: 2e9, OWD: 40 * sim.Millisecond,
		Data: netem.Impairments{LossRate: 0.001}}
	tbl := stats.NewTable("Scheme", "Actual goodput Mbit/s")
	ls := []int{1, 2, 4, 8, 16}
	if opt.Quick {
		ls = []int{1, 8}
	}
	var l1, l16 float64
	for _, l := range ls {
		cfg := legacyBBRConfig()
		if l == 1 {
			cfg.AckPolicy = ackpolicy.NewPerPacket()
		} else {
			cfg.AckPolicy = ackpolicy.NewByteCount(l)
		}
		m := runHybridFlow(opt.seed(), wlan, wan, cfg, dur)
		if l == 1 {
			l1 = m.GoodputBps
		}
		if l == ls[len(ls)-1] {
			l16 = m.GoodputBps
		}
		tbl.AddRow(fmt.Sprintf("TCP (L=%d)", l), stats.Mbps(m.GoodputBps))
	}
	tackM := runHybridFlow(opt.seed(), wlan, wan, tackConfig(), dur)
	tbl.AddRow("TACK (L=2)", stats.Mbps(tackM.GoodputBps))
	notes := fmt.Sprintf(
		"Paper shape: legacy TCP fails to follow the ideal rising trend when ACKs thin (L=1 %.1f vs L=16 %.1f Mbit/s here), while TACK (%.1f) approaches the ideal.",
		l1/1e6, l16/1e6, tackM.GoodputBps/1e6)
	return &Result{
		ID: "fig10b", Title: "ACK thinning disturbs legacy TCP (802.11n, RTT 80 ms, rho=0.1%)",
		Table: tbl.String(), Notes: notes,
	}, nil
}
