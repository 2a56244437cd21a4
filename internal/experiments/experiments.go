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
	"sort"

	"github.com/tacktp/tack/internal/sim"
	"github.com/tacktp/tack/internal/topo"
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
func Run(id string, opt Options) (*Result, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	return r(opt)
}

// flowMetrics summarizes one measured flow.
type flowMetrics struct {
	GoodputBps  float64
	DataPackets int
	AcksSent    int
	Retransmits int
	Timeouts    int
	OWD95       sim.Time
	LossIACKs   int
	Delivered   int64
	Done        bool
	SndStats    transport.SenderStats
	RcvStats    transport.ReceiverStats
}

func metricsOf(f *topo.Flow, dur sim.Time) flowMetrics {
	return flowMetrics{
		GoodputBps:  float64(f.Receiver.Delivered()) * 8 / dur.Seconds(),
		DataPackets: f.Sender.Stats.DataPackets,
		AcksSent:    f.Receiver.Stats.AcksSent(),
		Retransmits: f.Sender.Stats.Retransmits,
		Timeouts:    f.Sender.Stats.Timeouts,
		OWD95:       sim.Time(f.OWD.Percentile(95) * 1e9),
		LossIACKs:   f.Receiver.Stats.LossIACKs,
		Delivered:   f.Receiver.Delivered(),
		Done:        f.Sender.Done(),
		SndStats:    f.Sender.Stats,
		RcvStats:    f.Receiver.Stats,
	}
}

// runHybridFlow measures one flow over WLAN + WAN (paper Figure 12).
func runHybridFlow(seed int64, wlan topo.WLANConfig, wan topo.WANConfig, cfg transport.Config, dur sim.Time) (flowMetrics, error) {
	loop := sim.NewLoop(seed)
	path, _, _, _ := topo.HybridPath(loop, wlan, wan)
	flow, err := topo.NewFlow(loop, cfg, path)
	if err != nil {
		return flowMetrics{}, err
	}
	flow.Start()
	loop.RunUntil(dur)
	return metricsOf(flow, dur), nil
}

// runWANFlow measures one flow over a wired emulated path.
func runWANFlow(seed int64, wan topo.WANConfig, cfg transport.Config, dur sim.Time) (flowMetrics, *topo.Flow, error) {
	loop := sim.NewLoop(seed)
	path, _, _ := topo.WANPath(loop, wan)
	flow, err := topo.NewFlow(loop, cfg, path)
	if err != nil {
		return flowMetrics{}, nil, err
	}
	flow.Start()
	loop.RunUntil(dur)
	return metricsOf(flow, dur), flow, nil
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
