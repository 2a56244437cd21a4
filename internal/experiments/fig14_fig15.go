package experiments

import (
	"fmt"

	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/topo"
	"github.com/tacktp/tack/internal/transport"
)

func init() {
	register("fig14", runFig14)
	register("fig15", runFig15)
}

// runFig14 reproduces Figure 14: the Pantheon-style horizontal evaluation —
// per-scenario power-metric rankings of the implemented scheme population
// over a randomized WAN ensemble.
func runFig14(opt Options) (*Result, error) {
	n := opt.count(16)
	dur := opt.dur(16 * sim.Second)
	scenarios := samplePantheon(n, opt.seed(), dur)
	schemes := pantheonSchemes()
	rankings := rankPantheon(scenarios, schemes)
	tbl := stats.NewTable("Rank", "Scheme", "mean rank", "median", "best", "worst")
	for i, r := range rankings {
		tbl.AddRow(fmt.Sprintf("%d", i+1), r.Scheme,
			fmt.Sprintf("%.2f", r.Mean),
			fmt.Sprintf("%.0f", r.Ranks.Median()),
			fmt.Sprintf("%.0f", r.Ranks.Min()),
			fmt.Sprintf("%.0f", r.Ranks.Max()))
	}
	pos := 0
	for i, r := range rankings {
		if r.Scheme == "tcp-tack" {
			pos = i + 1
		}
	}
	notes := fmt.Sprintf("Paper shape: TCP-TACK ranks among the top schemes (near TCP Vegas) under the power metric log(throughput/OWD95). Here TCP-TACK placed #%d of %d.", pos, len(rankings))
	return &Result{ID: "fig14", Title: "Pantheon-style WAN ranking (Kleinrock power metric)", Table: tbl.String(), Notes: notes}, nil
}

// runFig15 reproduces Figure 15: TCP friendliness. Two flows share a
// randomized bottleneck for 60 seconds; we report each flow's mean ratio of
// achieved throughput to its fair share, for the pairings BBR/CUBIC,
// TACK/CUBIC and TACK/BBR.
func runFig15(opt Options) (*Result, error) {
	pairsPerCell := opt.count(8)
	dur := opt.dur(60 * sim.Second)
	rng := sim.NewLoop(opt.seed()).Rand()

	type pairing struct {
		name   string
		a, b   func() transport.Config
		labelA string
		labelB string
	}
	legacy := func(ccName string) func() transport.Config {
		return func() transport.Config {
			return transport.Config{Mode: transport.ModeLegacy, CC: ccName}
		}
	}
	pairings := []pairing{
		{"BBR vs CUBIC", legacy("bbr"), legacy("cubic"), "TCP BBR", "TCP CUBIC"},
		{"TACK vs CUBIC", tackConfig, legacy("cubic"), "TCP-TACK", "TCP CUBIC"},
		{"TACK vs BBR", tackConfig, legacy("bbr"), "TCP-TACK", "TCP BBR"},
	}
	tbl := stats.NewTable("Pairing", "flow A", "A ratio", "flow B", "B ratio")
	var tackVsCubic, bbrVsCubic float64
	for _, p := range pairings {
		ra, rb := stats.NewSummary(), stats.NewSummary()
		for i := 0; i < pairsPerCell; i++ {
			bw := (1 + rng.Float64()*99) * 1e6
			owd := sim.Time(1+rng.Intn(100)) * sim.Millisecond
			queue := int((0.5 + rng.Float64()*4.5) * bw / 8 * (2 * owd).Seconds())
			if queue < 32<<10 {
				queue = 32 << 10
			}
			seed := rng.Int63()
			ga, gb := runSharedBottleneck(seed, bw, owd, queue, p.a(), p.b(), dur)
			fair := bw / 2
			ra.Add(ga / fair)
			rb.Add(gb / fair)
		}
		tbl.AddRow(p.name, p.labelA, fmt.Sprintf("%.2f", ra.Mean()), p.labelB, fmt.Sprintf("%.2f", rb.Mean()))
		if p.name == "TACK vs CUBIC" {
			tackVsCubic = ra.Mean()
		}
		if p.name == "BBR vs CUBIC" {
			bbrVsCubic = ra.Mean()
		}
	}
	notes := fmt.Sprintf("Paper shape: the TACK-based receiver-coordinated BBR shows the same friendliness profile as standard BBR (ratio vs CUBIC: BBR %.2f, TACK %.2f here) — the ACK mechanism does not change controller aggressiveness.", bbrVsCubic, tackVsCubic)
	return &Result{ID: "fig15", Title: "TCP friendliness: throughput vs ideal fair share", Table: tbl.String(), Notes: notes}, nil
}

// runSharedBottleneck runs two flows (configs a at ConnID 1, b at ConnID 2)
// over one shared WAN bottleneck and returns their goodputs.
func runSharedBottleneck(seed int64, bw float64, owd sim.Time, queue int, ca, cb transport.Config, dur sim.Time) (float64, float64) {
	loop := sim.NewLoop(seed)
	path, _, _ := topo.WANPath(loop, topo.WANConfig{RateBps: bw, OWD: owd, QueueBytes: queue})
	ca.ConnID = 1
	cb.ConnID = 2
	fa, err := topo.NewFlow(loop, ca, path)
	if err != nil {
		panic(err)
	}
	fb, err := topo.NewFlow(loop, cb, path)
	if err != nil {
		panic(err)
	}
	fa.Start()
	// Stagger the second flow slightly (real concurrent starts).
	loop.After(100*sim.Millisecond, func() { fb.Start() })
	loop.RunUntil(dur)
	return float64(fa.Receiver.Delivered()) * 8 / dur.Seconds(),
		float64(fb.Receiver.Delivered()) * 8 / dur.Seconds()
}
