// Package experiments is the in-simulation evaluation harness. It
// reproduces every table and figure of the TACK paper's evaluation (§3.2,
// §5, §6 and the appendices) under the paper's figure id (fig1 … fig17),
// the paper's §7 discussion points and the benchmark's WAN path as ext-*,
// and the A/B comparisons that justify the features grown on top of the
// paper (streams, RACK-TLP, FEC) as ab-*. The tackbench command runs any of
// them by id; the package's tests gate the ab-* headline numbers and the
// paper's verdicts (verdict_test.go).
//
// Absolute numbers depend on the simulated substrate; the experiments are
// judged on the paper's qualitative shape (who wins, by roughly what
// factor, where crossovers fall) — see EXPERIMENTS.md for the side-by-side
// record.
package experiments

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"

	"github.com/tacktp/tack/internal/endpoint"
	"github.com/tacktp/tack/internal/phy"
	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/transport"
)

// Options tunes a run.
type Options struct {
	// Quick shrinks durations/ensembles for smoke tests and benchmarks.
	Quick bool
	// Seed makes runs reproducible (0 selects 1).
	Seed int64
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// dur scales a duration down 4x in quick mode.
func (o Options) dur(full sim.Time) sim.Time {
	if o.Quick {
		return full / 4
	}
	return full
}

// count scales an ensemble size down in quick mode.
func (o Options) count(full int) int {
	if o.Quick {
		n := full / 4
		if n < 1 {
			n = 1
		}
		return n
	}
	return full
}

// Result is one experiment's rendered output.
type Result struct {
	ID    string
	Title string
	Table string
	Notes string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table)
	if r.Notes != "" {
		s += "\n" + r.Notes + "\n"
	}
	return s
}

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

var registry = map[string]Runner{}

func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// paperOrder maps an id to its sort key: the paper's figures by number then
// suffix (fig3 before fig10a before fig10b), ahead of everything else by
// name (the ab-* feature A/Bs, then the ext-* extensions).
func paperOrder(id string) string {
	var n int
	var suffix string
	if got, _ := fmt.Sscanf(id, "fig%d%s", &n, &suffix); got == 0 {
		return id
	}
	return fmt.Sprintf(" %03d%s", n, suffix)
}

// IDs lists registered experiments in paper order (see paperOrder).
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return paperOrder(out[i]) < paperOrder(out[j]) })
	return out
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) (res *Result, err error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	defer func() {
		switch p := recover().(type) {
		case nil:
		case simFault:
			res, err = nil, fmt.Errorf("experiments: %s: %w", id, p.error)
		default:
			panic(p)
		}
	}()
	return r(opt)
}

// flowMetrics summarizes one measured flow.
type flowMetrics struct {
	GoodputBps  float64
	DataPackets int
	AcksSent    int
	Retransmits int
	OWD95       sim.Time
}

func metricsOf(f *flow, dur sim.Time) flowMetrics {
	snd := f.sender().Stats
	return flowMetrics{
		GoodputBps:  float64(f.delivered()) * 8 / dur.Seconds(),
		DataPackets: snd.DataPackets,
		AcksSent:    f.rcvStats().AcksSent(),
		Retransmits: snd.Retransmits,
		OWD95:       sim.Time(f.owd.Percentile(95) * 1e9),
	}
}

// runFlow measures one flow for dur over the path that lay puts between
// its two hosts.
func runFlow(seed int64, lay func(n *endpoint.SimNet, a, b net.IP), cfg transport.Config, dur sim.Time) flowMetrics {
	n, a, b := newNet(seed)
	lay(n, a, b)
	f := dialFlow(n, a, b, cfg)
	runTo(n, dur)
	return metricsOf(f, dur)
}

// runHybridFlow measures one flow over WLAN + WAN (paper Figure 12).
func runHybridFlow(seed int64, std phy.Standard, wan wanConfig, cfg transport.Config, dur sim.Time) flowMetrics {
	return runFlow(seed, func(n *endpoint.SimNet, a, b net.IP) {
		up, down := wan.links()
		HybridPath(n, a, b, medium(n, std), up, down)
	}, cfg, dur)
}

// runWANFlow measures one flow over a wired emulated path.
func runWANFlow(seed int64, wan wanConfig, cfg transport.Config, dur sim.Time) flowMetrics {
	return runFlow(seed, func(n *endpoint.SimNet, a, b net.IP) {
		up, down := wan.links()
		WANPath(n, a, b, up, down)
	}, cfg, dur)
}

// each runs fn(0) … fn(n-1) on up to GOMAXPROCS goroutines. The runs must
// share nothing (each builds its own network), so their results are those
// of running them in order; a run's panic is raised again here.
func each(n int, fn func(i int)) {
	var wg sync.WaitGroup
	panics := make([]any, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range panics {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { panics[i] = recover(); <-slots; wg.Done() }()
			fn(i)
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// tackConfig returns the TCP-TACK configuration used across experiments.
func tackConfig() transport.Config {
	return transport.Config{Mode: transport.ModeTACK, CC: "bbr", RichTACK: true}
}

// legacyBBRConfig returns the TCP BBR baseline (delayed ACKs, SACK+FACK
// loss detection, sender timing).
func legacyBBRConfig() transport.Config {
	return transport.Config{Mode: transport.ModeLegacy, CC: "bbr"}
}
