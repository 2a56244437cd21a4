package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/transport"
)

func init() {
	register("fig13", runFig13)
}

// fig13Case is one row of the paper's Figure 13 hybrid WLAN+WAN matrix.
type fig13Case struct {
	id     int
	std    phy.Standard
	wanRTT sim.Time
	wanBps float64
	loss   float64 // ρ = ρ′
}

// runFig13 reproduces Figure 13: performance over combined WLAN + WAN
// links (topology of Figure 12). Four cases: {54,300} Mbit/s WLAN ×
// {20,200} ms WAN RTT × {clean, (1%,1%)} loss; reporting goodput, data
// packet count, and ACK count for TCP BBR and TCP-TACK.
func runFig13(opt Options) (*Result, error) {
	dur := opt.dur(40 * sim.Second)
	cases := []fig13Case{
		{1, phy.Std80211g, 20 * sim.Millisecond, 100e6, 0},
		{2, phy.Std80211g, 20 * sim.Millisecond, 100e6, 0.01},
		{3, phy.Std80211n, 200 * sim.Millisecond, 500e6, 0},
		{4, phy.Std80211n, 200 * sim.Millisecond, 500e6, 0.01},
	}
	if opt.Quick {
		cases = cases[:2]
	}
	tbl := stats.NewTable("Case", "WLAN", "WAN", "(rho,rho')",
		"BBR Mbit/s", "BBR data#", "BBR ACK#",
		"TACK Mbit/s", "TACK data#", "TACK ACK#")
	seeds := opt.count(3)
	warmup := dur / 4
	// Each cell is averaged over seeds with the startup quarter excluded
	// from the goodput (the table studies steady behaviour). Every (case,
	// scheme, seed) run is independent, so they all run at once.
	schemes := []func() transport.Config{legacyBBRConfig, tackConfig}
	type run struct {
		goodput    float64
		data, acks int
	}
	runs := make([]run, len(cases)*len(schemes)*seeds)
	each(len(runs), func(j int) {
		c := cases[j/(len(schemes)*seeds)]
		n, a, b := newNet(opt.seed() + int64(j%seeds*1000))
		up, down := wanConfig{RateBps: c.wanBps, OWD: c.wanRTT / 2,
			Data: netem.Impairments{LossRate: c.loss}, Ack: netem.Impairments{LossRate: c.loss}}.links()
		HybridPath(n, a, b, medium(n, c.std), up, down)
		f := dialFlow(n, a, b, schemes[j/seeds%len(schemes)]())
		runTo(n, warmup)
		base := f.delivered()
		runTo(n, dur)
		m := metricsOf(f, dur)
		runs[j] = run{float64(f.delivered()-base) * 8 / (dur - warmup).Seconds(), m.DataPackets, m.AcksSent}
	})
	measure := func(cell []run) (goodput float64, dataPkts, acks int) {
		for _, r := range cell {
			goodput += r.goodput
			dataPkts += r.data
			acks += r.acks
		}
		return goodput / float64(seeds), dataPkts / seeds, acks / seeds
	}
	type rowStat struct{ tackAcks int }
	var rows []rowStat
	for i, c := range cases {
		cell := runs[i*len(schemes)*seeds:]
		bbrG, bbrData, bbrAcks := measure(cell[:seeds])
		tackG, tackData, tackAcks := measure(cell[seeds : 2*seeds])
		rows = append(rows, rowStat{tackAcks: tackAcks})
		tbl.AddRow(fmt.Sprintf("%d", c.id),
			fmt.Sprintf("%s", c.std),
			fmt.Sprintf("%v/%.0fM", c.wanRTT, c.wanBps/1e6),
			fmt.Sprintf("(%.0f%%,%.0f%%)", c.loss*100, c.loss*100),
			stats.Mbps(bbrG), fmt.Sprintf("%d", bbrData), fmt.Sprintf("%d", bbrAcks),
			stats.Mbps(tackG), fmt.Sprintf("%d", tackData), fmt.Sprintf("%d", tackAcks))
	}
	notes := "Paper shape: TACK wins goodput in the clean cases and case 2; its ACK count in case 1 (20 ms RTT) is ~10x case 3 (200 ms RTT) per Eq. 3, and the lossy cases add loss-event IACKs on the return path. Known gap: in case 4 (1% loss at 200 ms) our receiver-coordinated BBR discovers bandwidth more slowly than the sender-based baseline, so TACK trails there (the paper's stack wins all four)."
	if len(rows) == 4 {
		notes += fmt.Sprintf(" Here: case1/case3 TACK ACK ratio = %.1fx.",
			float64(rows[0].tackAcks)/float64(rows[2].tackAcks))
	}
	return &Result{ID: "fig13", Title: "Hybrid WLAN+WAN performance (Figure 12 topology)", Table: tbl.String(), Notes: notes}, nil
}
