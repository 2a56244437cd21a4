package main

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// WorkloadResult is what one run of one workload produced.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"`    // latency samples in the window
	TailLevel string            `json:"tail_level"` // percentile object_tail_ms was read at
	Metrics   map[string]Metric `json:"metrics"`
	// Fixtures holds, for a plain run, each fixture's own reading of the
	// metrics reported as a median over fixtures.
	Fixtures map[string][]float64 `json:"fixtures,omitempty"`
	Notes    []string             `json:"notes,omitempty"` // first few failures
}

// runOpts are the knobs of one run.
type runOpts struct {
	seed    int64
	window  time.Duration
	trace   bool
	spans   *spanLog
	repeats int // fixtures a plain run splits its window over
}

// setupRepeats is how many fixtures a plain run builds and measures on,
// one after the other (see runWorkload).
const setupRepeats = 5

const setupTimeout = 60 * time.Second

// windowStats is a measured window, ready to be turned into metrics.
type windowStats struct {
	wall, cpu time.Duration
	goodput   float64   // bytes per second: the sum of the flows' rates
	bytes     float64   // goodput × wall: what the CPU time is charged to
	lat       []float64 // ms, ascending: operations that completed and verified in the window
	attempted int
	failed    int
	notes     []string
	heap      uint64
	m0, m1    mark
}

// setUp builds and warms one fixture: endpoints up, held connections
// dialed, load running, warmOps operations done.
func setUp(sp *spec, o runOpts) (*fixture, error) {
	fx, err := build(sp, o.seed, o.trace, o.spans)
	if err != nil {
		return nil, err
	}
	if err := fx.warmUp(o.seed); err != nil {
		fx.close()
		return nil, err
	}
	return fx, nil
}

func (fx *fixture) warmUp(seed int64) error {
	sw := fx.spans.begin("warmup", 0, 0)
	defer fx.spans.end(sw)
	if err := fx.start(seed); err != nil {
		return err
	}
	select {
	case <-fx.rec.warmed:
		return nil
	case <-time.After(setupTimeout):
		return errors.New("warm-up did not finish")
	}
}

// measure times one window on a warmed fixture, then halts the fixture
// and verifies what the window delivered.
func (fx *fixture) measure(window time.Duration) windowStats {
	sw := fx.spans.begin("window", 0, 0)
	m0 := fx.mark()
	time.Sleep(window)
	m1 := fx.mark()
	fx.spans.end(sw)
	ws := windowStats{wall: m1.at - m0.at, cpu: m1.cpu - m0.cpu, m0: m0, m1: m1}
	ws.heap = liveHeap()
	fx.halt()

	fail := func(format string, args ...any) {
		ws.failed++
		if len(ws.notes) < 5 {
			ws.notes = append(ws.notes, fmt.Sprintf(format, args...))
		}
	}
	size := fx.sp.objectBytes
	flowBytes := make([]int64, fx.sp.flows)
	for _, op := range fx.rec.ops {
		if op.end <= m0.flows[op.flow].at || op.end > m1.flows[op.flow].at {
			continue
		}
		ws.attempted++
		switch got, ok := fx.delivered[op.id]; {
		case op.err != nil:
			fail("operation %08x: %v", op.id, op.err)
		case !fx.sp.streams && (!ok || got != size):
			fail("connection %08x: server delivered %d bytes, want %d", op.id, got, size)
		default:
			flowBytes[op.flow] += size
			ws.lat = append(ws.lat, float64(op.end-op.start)/1e6)
		}
	}
	for f, b := range flowBytes {
		f0, f1 := m0.flows[f], m1.flows[f]
		ws.goodput += float64(b+f1.acked-f0.acked) / (f1.at - f0.at).Seconds()
	}
	ws.bytes = ws.goodput * ws.wall.Seconds()
	sort.Float64s(ws.lat)
	if fx.streamBad > 0 {
		fail("%d streams reached the server unannounced", fx.streamBad)
	}
	if fx.relay != nil {
		for dir, st := range map[string]relayStats{"up": fx.relay.up.stats(), "down": fx.relay.down.stats()} {
			if !st.conserved() {
				fail("relay %s: %d in != %d forwarded + %d + %d dropped + %d flushed",
					dir, st.In, st.Forwarded, st.ModelDrops, st.TailDrops, st.Flushed)
			}
		}
	}
	if ws.attempted == 0 && ws.bytes <= 0 {
		// Nothing finished and what was in flight moved nothing: a stall,
		// counted as one failed operation. (A window that merely ended
		// before its first completion still measured acknowledged bytes;
		// runWorkload refuses a run made of such windows only.)
		ws.attempted = 1
		fail("no operation completed and no byte was acknowledged")
	}
	return ws
}

// errTooShort is returned when not one operation completed and verified
// in the whole run: its latencies would read 0 and nothing it delivered
// would have been checked.
func errTooShort(sp *spec, o runOpts) error {
	return fmt.Errorf("%s: no operation completed in %v of measuring; the window is too short for the workload", sp.name, o.window)
}

// runWorkload runs one workload once and returns its metrics: the
// end-to-end set on a plain run, the per-layer set on a traced one.
//
// A plain run splits its window over o.repeats fixtures built one after
// the other, and reports the median over them of set-up time, goodput,
// CPU per byte and live heap, and percentiles of the pooled latencies.
// Each fixture binds fresh endpoints, whose shard tickers start at a
// fresh phase to each other; on loopback that phase moves a flow's RTT,
// and with it every number, by more than any bound here. The median over
// fixtures is what a user who reconnects now and then sees.
func runWorkload(sp *spec, o runOpts) (*WorkloadResult, error) {
	if o.trace {
		return runTraced(sp, o)
	}
	var parts []*WorkloadResult
	var lat []float64
	vals := map[string][]float64{}
	for i := 0; i < o.repeats; i++ {
		t := time.Now()
		fx, err := setUp(sp, o)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		vals["setup_s"] = append(vals["setup_s"], time.Since(t).Seconds())
		ws := fx.measure(o.window / time.Duration(o.repeats))
		part := ws.result(sp)
		for name, m := range part.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		parts = append(parts, part)
		lat = append(lat, ws.lat...)
	}
	sort.Float64s(lat)
	tailV, level := tail(lat)
	res := &WorkloadResult{Name: sp.name, Samples: len(lat), TailLevel: level, Metrics: map[string]Metric{
		"object_p50_ms":  manifest.metric("object_p50_ms", median(lat)),
		"object_tail_ms": manifest.metric("object_tail_ms", tailV),
	}}
	for _, name := range []string{"setup_s", "goodput_mb_s", "cpu_s_per_gb", "live_heap_mb"} {
		res.Metrics[name] = manifest.metric(name, medianOf(vals[name]))
	}
	if name := missing(res.Metrics, manifest.EndToEnd); name != "" {
		return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", sp.name, name)
	}
	for _, part := range parts {
		res.Attempted += part.Attempted
		res.Failed += part.Failed
		res.Notes = append(res.Notes, part.Notes...)
	}
	if res.Attempted == 0 {
		return nil, errTooShort(sp, o)
	}
	res.Correct = res.Failed == 0
	res.Fixtures = vals
	return res, nil
}

// result turns one window into the metrics it supports: all the
// end-to-end ones but setup_s.
func (ws *windowStats) result(sp *spec) *WorkloadResult {
	tailV, level := tail(ws.lat)
	return &WorkloadResult{
		Name: sp.name, Correct: ws.failed == 0, Attempted: ws.attempted, Failed: ws.failed,
		Samples: len(ws.lat), TailLevel: level, Notes: ws.notes,
		Metrics: map[string]Metric{
			"goodput_mb_s":   manifest.metric("goodput_mb_s", ws.goodput/MB),
			"cpu_s_per_gb":   manifest.metric("cpu_s_per_gb", ratio(ws.cpu.Seconds(), ws.bytes/GB)),
			"object_p50_ms":  manifest.metric("object_p50_ms", median(ws.lat)),
			"object_tail_ms": manifest.metric("object_tail_ms", tailV),
			"live_heap_mb":   manifest.metric("live_heap_mb", float64(ws.heap)/MB),
		},
	}
}
