package experiments

// The paper's §6.6 horizontal evaluation (fig14): a Pantheon-style community
// benchmark that runs a population of transport schemes over an ensemble of
// randomized WAN scenarios and ranks them per scenario by Kleinrock's power
// metric log(throughput_avg / OWD_95th).
//
// The real Pantheon measured wild Internet paths for 200 days; here each
// scenario is an emulated path sampled from realistic ranges (bandwidth,
// RTT, loss, queue depth), optionally with competing cross traffic, which
// preserves the figure's who-beats-whom ranking structure.

import (
	"math"
	"sort"

	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/stats"
	"github.com/tacktp/tack/internal/topo"
	"github.com/tacktp/tack/internal/transport"
)

// pantheonScheme is one ranked transport configuration.
type pantheonScheme struct {
	Name string
	// Config builds the transport configuration for a run.
	Config func() transport.Config
}

// pantheonSchemes returns the scheme population: TCP-TACK plus the
// implemented baseline family. (Sprout/Verus/Indigo from the paper are
// learned/forecast controllers tied to cellular traces and are out of
// scope; the six families below preserve the ranking structure.)
func pantheonSchemes() []pantheonScheme {
	legacy := func(cc string) func() transport.Config {
		return func() transport.Config {
			return transport.Config{Mode: transport.ModeLegacy, CC: cc}
		}
	}
	return []pantheonScheme{
		{Name: "tcp-tack", Config: func() transport.Config {
			return transport.Config{Mode: transport.ModeTACK, CC: "bbr", RichTACK: true}
		}},
		{Name: "tcp-bbr", Config: legacy("bbr")},
		{Name: "tcp-cubic", Config: legacy("cubic")},
		{Name: "tcp-vegas", Config: legacy("vegas")},
		{Name: "tcp-reno", Config: legacy("reno")},
		{Name: "copa", Config: legacy("copa")},
		{Name: "pcc-allegro", Config: legacy("pcc")},
	}
}

// pantheonScenario is one emulated path configuration.
type pantheonScenario struct {
	RateBps  float64
	OWD      sim.Time
	Loss     float64
	QueueBDP float64 // queue depth as a multiple of bdp
	Dur      sim.Time
	Seed     int64
	// CrossTraffic runs a competing legacy CUBIC flow over the same path
	// (the paper's §6.6 "single flow, or cross traffic" workloads). The
	// fair share then halves, which the power metric reflects naturally.
	CrossTraffic bool
}

// samplePantheon draws n randomized scenarios from Pantheon-like ranges.
func samplePantheon(n int, seed int64, dur sim.Time) []pantheonScenario {
	rng := sim.NewLoop(seed).Rand()
	out := make([]pantheonScenario, n)
	for i := range out {
		rate := (5 + rng.Float64()*195) * 1e6              // 5–200 Mbit/s
		owd := sim.Time(2+rng.Intn(120)) * sim.Millisecond // 4–240 ms RTT
		loss := 0.0
		if rng.Float64() < 0.4 {
			loss = rng.Float64() * 0.01 // up to 1%
		}
		out[i] = pantheonScenario{
			RateBps:      rate,
			OWD:          owd,
			Loss:         loss,
			QueueBDP:     0.5 + rng.Float64()*4.5,
			Dur:          dur,
			Seed:         rng.Int63(),
			CrossTraffic: rng.Float64() < 0.3,
		}
	}
	return out
}

// pantheonResult is one scheme's outcome on one scenario.
type pantheonResult struct {
	Scheme    string
	Goodput   float64 // bits/s
	OWD95     sim.Time
	Power     float64
	Completed bool
}

// runPantheon measures one scheme over one scenario.
func runPantheon(sc pantheonScenario, scheme pantheonScheme) pantheonResult {
	loop := sim.NewLoop(sc.Seed)
	queueBytes := int(sc.RateBps / 8 * (2 * sc.OWD).Seconds() * sc.QueueBDP)
	if queueBytes < 32<<10 {
		queueBytes = 32 << 10
	}
	path, _, _ := topo.WANPath(loop, topo.WANConfig{
		RateBps:    sc.RateBps,
		OWD:        sc.OWD,
		QueueBytes: queueBytes,
		DataLoss:   sc.Loss,
		AckLoss:    sc.Loss,
	})
	cfg := scheme.Config()
	cfg.ConnID = 1
	flow, err := topo.NewFlow(loop, cfg, path)
	if err != nil {
		return pantheonResult{Scheme: scheme.Name}
	}
	if sc.CrossTraffic {
		cross, err := topo.NewFlow(loop, transport.Config{
			Mode: transport.ModeLegacy, CC: "cubic", ConnID: 2,
		}, path)
		if err == nil {
			cross.Start()
		}
	}
	flow.Start()
	loop.RunUntil(sc.Dur)
	delivered := flow.Receiver.Delivered()
	goodput := float64(delivered) * 8 / sc.Dur.Seconds()
	owd95 := sim.Time(flow.OWD.Percentile(95) * 1e9)
	power := math.Inf(-1)
	if goodput > 0 && owd95 > 0 {
		power = math.Log(goodput / owd95.Seconds())
	}
	return pantheonResult{
		Scheme:    scheme.Name,
		Goodput:   goodput,
		OWD95:     owd95,
		Power:     power,
		Completed: delivered > 0,
	}
}

// pantheonRanking aggregates per-scenario ranks for each scheme.
type pantheonRanking struct {
	Scheme string
	Ranks  *stats.Summary // 1 = best per scenario
	Mean   float64
}

// rankPantheon runs every scheme over every scenario and returns rankings
// sorted best-first.
func rankPantheon(scenarios []pantheonScenario, schemes []pantheonScheme) []pantheonRanking {
	perScheme := map[string]*stats.Summary{}
	for _, s := range schemes {
		perScheme[s.Name] = stats.NewSummary()
	}
	for _, sc := range scenarios {
		results := make([]pantheonResult, len(schemes))
		for j, scheme := range schemes {
			results[j] = runPantheon(sc, scheme)
		}
		// Rank by power, best (highest) first.
		order := make([]int, len(results))
		for k := range order {
			order[k] = k
		}
		sort.SliceStable(order, func(a, b int) bool {
			return results[order[a]].Power > results[order[b]].Power
		})
		for rank, idx := range order {
			perScheme[results[idx].Scheme].Add(float64(rank + 1))
		}
	}
	out := make([]pantheonRanking, 0, len(schemes))
	for _, s := range schemes {
		r := perScheme[s.Name]
		out = append(out, pantheonRanking{Scheme: s.Name, Ranks: r, Mean: r.Mean()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Mean < out[b].Mean })
	return out
}
