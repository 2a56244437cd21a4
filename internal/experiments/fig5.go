package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/cc"
	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/netem"
	"github.com/tacktp/tack/internal/packet"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/transport"
)

func init() {
	register("fig5a", runFig5a)
	register("fig5b", runFig5b)
}

// runFig5a reproduces Figure 5(a): the CDF of data blocked in the receive
// buffer (head-of-line blocking) with and without loss-event IACKs, over
// randomly sampled lossy paths (ρ ∈ [0,3%], RTT ∈ [1,200] ms). Both arms
// use a fixed send rate so the inflow is identical and the blocked volume
// purely reflects hole dwell time.
func runFig5a(opt Options) (*Result, error) {
	samples := opt.count(12)
	dur := opt.dur(20 * sim.Second)
	rng := sim.NewLoop(opt.seed()).Rand()

	run := func(disable bool, loss float64, owd sim.Time, seed int64) *stats.Summary {
		n, a, b := newNet(seed)
		up, down := wanConfig{RateBps: 50e6, OWD: owd, QueueBytes: 4 << 20,
			Data: netem.Impairments{LossRate: loss}}.links()
		WANPath(n, a, b, up, down)
		cfg := transport.Config{Mode: transport.ModeTACK, CC: "static",
			DisableIACK: disable}
		f := dialFlow(n, a, b, cfg)
		f.sender().Controller().(*cc.Static).SetRate(30e6)
		// Sample the receive buffer's head-of-line-blocked volume as each
		// acknowledgment leaves the receiver.
		blocked := stats.NewSummary()
		n.Watch(false, func(ep *endpoint.Endpoint, p *packet.Packet, _ sim.Time) {
			switch r := f.receiver(); {
			case ep != f.srv || r == nil:
			case p.Type == packet.TypeTACK, p.Type == packet.TypeIACK, p.Type == packet.TypeFINACK:
				blocked.Add(float64(r.Buffer().BlockedBytes()))
			}
		})
		runTo(n, dur)
		return blocked
	}

	with := stats.NewSummary()
	without := stats.NewSummary()
	for i := 0; i < samples; i++ {
		loss := rng.Float64() * 0.03
		owd := sim.Time(1+rng.Intn(100)) * sim.Millisecond
		seed := rng.Int63()
		for _, v := range run(false, loss, owd, seed).Values() {
			with.Add(v)
		}
		for _, v := range run(true, loss, owd, seed).Values() {
			without.Add(v)
		}
	}
	tbl := stats.NewTable("Percentile", "With IACK (bytes)", "Without IACK (bytes)")
	for _, p := range []float64{50, 75, 90, 99} {
		tbl.AddRow(fmt.Sprintf("P%.0f", p),
			fmt.Sprintf("%.0f", with.Percentile(p)),
			fmt.Sprintf("%.0f", without.Percentile(p)))
	}
	notes := fmt.Sprintf("Paper shape: the with-IACK CDF sits far left of without-IACK. Medians: %.0f vs %.0f bytes.",
		with.Median(), without.Median())
	return &Result{ID: "fig5a", Title: "IACK reduces receive-buffer memory pressure (HoLB)", Table: tbl.String(), Notes: notes}, nil
}

// runFig5b reproduces Figure 5(b): bandwidth utilization on a
// bidirectionally lossy path (RTT 200 ms, ρ = 1% data loss) as the
// ACK-path loss rate ρ′ sweeps 0.2–10%, for TACK-rich, TACK-poor and the
// legacy TCP BBR baseline (SACK).
func runFig5b(opt Options) (*Result, error) {
	const linkBps = 50e6
	dur := opt.dur(30 * sim.Second)
	ackLosses := []float64{0.002, 0.01, 0.05, 0.10}
	if opt.Quick {
		ackLosses = []float64{0.002, 0.10}
	}
	wan := func(ackLoss float64) wanConfig {
		return wanConfig{RateBps: linkBps, OWD: 100 * sim.Millisecond,
			Data: netem.Impairments{LossRate: 0.01}, Ack: netem.Impairments{LossRate: ackLoss}}
	}
	seeds := opt.count(3)
	warmup := dur / 4
	// steadyUtil measures goodput after a warmup quarter (startup
	// convergence is not what Figure 5(b) studies), averaged over seeds
	// that run at once.
	steadyUtil := func(al float64, cfg transport.Config) float64 {
		utils := make([]float64, seeds)
		each(seeds, func(i int) {
			n, a, b := newNet(opt.seed() + int64(i*1000))
			up, down := wan(al).links()
			WANPath(n, a, b, up, down)
			f := dialFlow(n, a, b, cfg)
			runTo(n, warmup)
			base := f.delivered()
			runTo(n, dur)
			utils[i] = float64(f.delivered()-base) * 8 / (dur - warmup).Seconds() / linkBps
		})
		sum := 0.0
		for _, u := range utils {
			sum += u
		}
		return sum / float64(seeds)
	}
	tbl := stats.NewTable("ACK loss", "TACK-rich", "TACK-poor", "TCP BBR")
	var richAt10, poorAt10, bbrAt10 float64
	for _, al := range ackLosses {
		rich := tackConfig()
		poor := tackConfig()
		poor.RichTACK = false
		bbr := legacyBBRConfig()
		uRich, uPoor, uBBR := steadyUtil(al, rich), steadyUtil(al, poor), steadyUtil(al, bbr)
		if al == 0.10 {
			richAt10, poorAt10, bbrAt10 = uRich, uPoor, uBBR
		}
		tbl.AddRow(stats.Pct(al), stats.Pct(uRich), stats.Pct(uPoor), stats.Pct(uBBR))
	}
	notes := fmt.Sprintf(
		"Paper shape: TACK-rich utilization barely degrades with ACK loss (paper: 92.7%%→90.8%%); TACK-poor and BBR fall off. At 10%%: rich %.0f%%, poor %.0f%%, bbr %.0f%%.",
		richAt10*100, poorAt10*100, bbrAt10*100)
	return &Result{ID: "fig5b", Title: "Rich TACKs keep utilization under bidirectional loss (RTT 200 ms, rho=1%)", Table: tbl.String(), Notes: notes}, nil
}
