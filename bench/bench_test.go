package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"github.com/tacktp/tack/internal/netem"
)

// TestMain loads the repository's BENCHMARK.json, as main does; loading
// checks that it lists the program's workloads.
func TestMain(m *testing.M) {
	if err := loadManifest("../" + manifestPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// quick returns a copy of sp small enough for a test: the metric set a
// workload emits does not depend on how much it transfers.
func quick(sp spec) *spec {
	if sp.objectBytes > 1<<20 {
		sp.objectBytes = 1 << 20
	}
	if sp.wan {
		sp.objectBytes = 256 << 10 // ≈ 6 round trips of 20 ms from a cold start
	}
	sp.warmOps = 2
	if sp.held > 0 {
		sp.held = 40
	}
	return &sp
}

// TestWorkloadsEmitListedMetrics runs every workload with a 300 ms window
// (1 s through the emulated WAN, of which a traced run measures 0.2 s
// untraced), plain and traced, and checks that it emits exactly the metric names
// BENCHMARK.json lists, each well-formed, and that every operation
// verified.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, sp := range specs {
		for _, mode := range []struct {
			trace bool
			defs  []metricDef
		}{{false, manifest.EndToEnd}, {true, manifest.PerLayer}} {
			o := runOpts{seed: 1, window: 300 * time.Millisecond, trace: mode.trace, repeats: 1}
			if sp.wan {
				o.window = time.Second
			}
			if mode.trace {
				o.spans = newSpanLog(sp.name)
			}
			res, err := runWorkload(quick(sp), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, mode.trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v",
					sp.name, mode.trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if !wellFormed.MatchString(name) {
					t.Errorf("%s: metric name %q is malformed", sp.name, name)
				}
				if !mode.trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", sp.name, name, m.Value)
				}
			}
			if want := namesOf(mode.defs); !equalSorted(got, want) {
				t.Errorf("%s trace=%v emitted %v, BENCHMARK.json lists %v", sp.name, mode.trace, got, want)
			}
			for _, d := range mode.defs {
				if m, ok := res.Metrics[d.Name]; ok && m.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", sp.name, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// TestRunRefusesWindowWithoutOperations: a window that ends before the
// first 32 MiB transfer does must not report correct with nothing verified.
func TestRunRefusesWindowWithoutOperations(t *testing.T) {
	for _, trace := range []bool{false, true} {
		o := runOpts{seed: 1, window: 20 * time.Millisecond, trace: trace, repeats: 1}
		if res, err := runWorkload(specByName("bulk1"), o); err == nil {
			t.Errorf("trace=%v: a 20 ms window reported %d attempted, correct=%v; want an error",
				trace, res.Attempted, res.Correct)
		}
	}
}

func namesOf(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	return out
}

func equalSorted(a, b []string) bool {
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRelayModel drives the link model with a fake clock at twice the
// link rate: what it forwards leaves at the configured rate, in order, and
// it tail-drops only when the modelled queue is full.
func TestRelayModel(t *testing.T) {
	cfg := linkConfig{RateBps: 100e6, Delay: 10 * time.Millisecond, QueueBytes: 250e3}
	d := newRelayDir(cfg, 1, false)
	const size = 1500
	gap := time.Duration(float64(size*8) / (2 * cfg.RateBps) * float64(time.Second))
	start := time.Unix(1000, 0)
	now, horizon := start, time.Time{}
	var forwarded, tailDrops int
	var first, last time.Time
	for i := 0; i < 40000; i++ {
		backlog := 0.0
		if horizon.After(now) {
			backlog = horizon.Sub(now).Seconds() * cfg.RateBps / 8
		}
		v, depart, h := d.admit(now, horizon, size)
		switch v {
		case verdictForward:
			if backlog+size > float64(cfg.QueueBytes) {
				t.Fatalf("packet %d forwarded into a full queue (backlog %.0f B)", i, backlog)
			}
			if !depart.After(last) {
				t.Fatalf("packet %d departs at %v, not after its predecessor %v", i, depart, last)
			}
			if forwarded == 0 {
				first = depart
			}
			last = depart
			forwarded++
		case verdictTailDrop:
			if backlog+size <= float64(cfg.QueueBytes) {
				t.Fatalf("packet %d tail-dropped with room in the queue (backlog %.0f B)", i, backlog)
			}
			tailDrops++
		default:
			t.Fatalf("packet %d: loss verdict from a lossless link", i)
		}
		horizon = h
		now = now.Add(gap)
	}
	if tailDrops == 0 {
		t.Fatal("offered twice the link rate and nothing was tail-dropped")
	}
	rate := float64(forwarded-1) * size * 8 / last.Sub(first).Seconds()
	if rate < 0.98*cfg.RateBps || rate > 1.02*cfg.RateBps {
		t.Errorf("delivered %.2f Mbit/s, configured %.2f", rate/1e6, cfg.RateBps/1e6)
	}
}

// TestRelayVerdictsFollowSeed checks that one seed gives one verdict
// sequence and another seed a different one.
func TestRelayVerdictsFollowSeed(t *testing.T) {
	cfg := linkConfig{RateBps: 1e9, Loss: netem.GilbertElliott{PEnterBad: 0.05, PExitBad: 0.5}}
	draw := func(seed int64) []relayVerdict {
		d := newRelayDir(cfg, seed, false)
		now, horizon := time.Unix(1000, 0), time.Time{}
		var out []relayVerdict
		for i := 0; i < 5000; i++ {
			v, _, h := d.admit(now, horizon, 1500)
			out = append(out, v)
			horizon, now = h, now.Add(time.Millisecond)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	same := func(x, y []relayVerdict) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("the same seed gave two verdict sequences")
	}
	if same(a, c) {
		t.Error("two seeds gave the same verdict sequence")
	}
	drops := 0
	for _, v := range a {
		if v == verdictModelDrop {
			drops++
		}
	}
	if drops == 0 {
		t.Error("a 9 % loss model dropped nothing in 5000 packets")
	}
}

// TestRelayLive sends numbered datagrams through a running relay: they
// arrive in order, no earlier than the configured delay, and every
// datagram read is accounted for.
func TestRelayLive(t *testing.T) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	link := linkConfig{RateBps: 200e6, Delay: 5 * time.Millisecond, QueueBytes: 1 << 20}
	r, err := newRelay(srv.LocalAddr().String(), link, link, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := net.Dial("udp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 400
	go func() {
		buf := make([]byte, 1200)
		for i := 0; i < n; i++ {
			binary.BigEndian.PutUint32(buf, uint32(i))
			binary.BigEndian.PutUint64(buf[4:], uint64(time.Now().UnixNano()))
			_, _ = cli.Write(buf)
		}
	}()
	buf := make([]byte, 2048)
	for want := 0; want < n; want++ {
		_ = srv.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := srv.Read(buf); err != nil {
			t.Fatalf("datagram %d never arrived: %v", want, err)
		}
		got := int(binary.BigEndian.Uint32(buf))
		if got != want {
			t.Fatalf("datagram %d arrived where %d was due", got, want)
		}
		sent := time.Unix(0, int64(binary.BigEndian.Uint64(buf[4:])))
		if d := time.Since(sent); d < link.Delay {
			t.Fatalf("datagram %d crossed in %v, link delay is %v", got, d, link.Delay)
		}
	}
	r.Close()
	for name, st := range map[string]relayStats{"up": r.up.stats(), "down": r.down.stats()} {
		if !st.conserved() {
			t.Errorf("%s: %+v does not add up", name, st)
		}
	}
	if got := r.up.stats().Forwarded; got != n {
		t.Errorf("forwarded %d datagrams, want %d", got, n)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	v := make([]float64, 3000)
	for i := range v {
		v[i] = float64(i)
	}
	// ceil(0.99 × 3000) = 2970 samples at or below the rank: 30 beyond.
	if got, err := percentile(v, 0.99); err != nil || got != 2969 {
		t.Errorf("p99 of 3000 samples = %v, %v; want 2969, nil", got, err)
	}
	if _, err := percentile(v[:2999], 0.99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 2999 samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(v[:1009], 0.99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 1009 samples (10 beyond): err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(v[:59], 0.5); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p50 of 59 samples: err = %v, want errTooFewSamples", err)
	}
	for _, c := range []struct {
		n     int
		level string
	}{{5, "none"}, {59, "none"}, {60, "p50"}, {119, "p50"}, {120, "p75"}, {299, "p75"}, {300, "p90"}, {2999, "p90"}, {3000, "p99"}} {
		if _, level := tail(v[:c.n]); level != c.level {
			t.Errorf("tail of %d samples read at %s, want %s", c.n, level, c.level)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// which the acceptance driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{4, 8}, 3, 9},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareReportsMissing: a side that lacks a metric, or a workload the
// other side ran, fails the comparison; a workload neither ran does not.
func TestCompareReportsMissing(t *testing.T) {
	full := func() runSet {
		rs := runSet{"bulk1": {}}
		for _, d := range manifest.EndToEnd {
			rs["bulk1"][d.Name] = []float64{1, 1.01, 1.02}
		}
		return rs
	}
	if got := compare(io.Discard, full(), full()); got != 0 {
		t.Errorf("two equal sets of one workload: status %d, want 0", got)
	}
	dropped := full()
	delete(dropped["bulk1"], "cpu_s_per_gb")
	if got := compare(io.Discard, full(), dropped); got != 1 {
		t.Errorf("new side without cpu_s_per_gb: status %d, want 1", got)
	}
	if got := compare(io.Discard, full(), runSet{}); got != 1 {
		t.Errorf("new side without the workload: status %d, want 1", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name       string
		base, cand []float64
		d          metricDef
		want       string
	}{
		{"steady", []float64{100, 101, 102}, []float64{101, 102, 103}, lower, "ok"},
		{"slower", []float64{100, 101, 102}, []float64{120, 121, 122}, lower, "worse"},
		{"faster", []float64{100, 101, 102}, []float64{80, 81, 82}, lower, "ok"},
		{"less goodput", []float64{100, 101, 102}, []float64{80, 81, 82}, higher, "worse"},
		{"noisy", []float64{80, 100, 130}, []float64{85, 104, 125}, lower, "unresolved"},
		{"noisy but apart", []float64{100, 130, 160}, []float64{50, 60, 70}, lower, "ok"},
		{"noisy and worse throughout", []float64{50, 60, 70}, []float64{100, 130, 160}, lower, "worse"},
	} {
		if got := verdict(c.base, c.cand, c.d); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
