package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runSet is one side of a comparison: every run's value of each
// workload's metrics.
type runSet map[string]map[string][]float64 // workload → metric → values

// loadRunSet reads a comma-separated list of result documents; a
// directory in the list stands for every *.json in it.
func loadRunSet(list string) (runSet, error) {
	var paths []string
	for _, path := range strings.Split(list, ",") {
		if st, err := os.Stat(path); err == nil && st.IsDir() {
			docs, _ := filepath.Glob(filepath.Join(path, "*.json")) // the pattern is well-formed
			if len(docs) == 0 {
				return nil, fmt.Errorf("%s: no result documents", path)
			}
			paths = append(paths, docs...)
			continue
		}
		paths = append(paths, path)
	}
	rs := runSet{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			return nil, fmt.Errorf("%s: a traced run carries no end-to-end metrics", path)
		}
		for _, w := range r.Workloads {
			if rs[w.Name] == nil {
				rs[w.Name] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				rs[w.Name][name] = append(rs[w.Name][name], m.Value)
			}
		}
	}
	return rs, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// acceptance driver uses. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0, 4] at a clamped end: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median (0 for a
// single run, which has none).
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return ratio(q3-q1, medianOf(v))
}

// verdict judges one workload × metric pair. A median that worsened by
// more than the bound is "worse"; a spread wider than the bound makes the
// pair "unresolved", unless the two sets do not overlap at all.
func verdict(base, cand []float64, d metricDef) string {
	lower := d.Better == "lower"
	worseThan := func(a, b float64) bool { // a is worse than b
		if lower {
			return a > b
		}
		return a < b
	}
	allWorse, allBetter := true, true
	for _, c := range cand {
		for _, b := range base {
			if !worseThan(c, b) {
				allWorse = false
			}
			if !worseThan(b, c) {
				allBetter = false
			}
		}
	}
	mb, mc := medianOf(base), medianOf(cand)
	change := ratio(mc-mb, mb) // relative change; sign by direction below
	if !lower {
		change = -change
	}
	worse := change > d.Bound
	switch {
	case worse && allWorse:
		return "worse"
	case spread(base) > d.Bound || spread(cand) > d.Bound:
		if allBetter {
			return "ok"
		}
		return "unresolved"
	case worse:
		return "worse"
	}
	return "ok"
}

// compareMain implements `bench compare BASE NEW`: one row per workload
// and end-to-end metric of BENCHMARK.json. BASE and NEW are comma-separated
// lists of result documents written by --out, or of directories holding
// them. It returns the exit status:
// 1 if any row is worse, or missing from either side.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare BASE NEW   (each a comma-separated list of result documents or directories of them)")
		return 2
	}
	var sets [2]runSet
	for i := range sets {
		var err error
		if sets[i], err = loadRunSet(args[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %v\n", err)
			return 2
		}
	}
	return compare(os.Stdout, sets[0], sets[1])
}

// compare prints the rows to w and returns the exit status.
func compare(w io.Writer, base, cand runSet) int {
	fmt.Fprintf(w, "%-9s %-15s %12s %12s %7s %6s %7s %7s  %s\n",
		"workload", "metric", "base", "new", "ratio", "bound", "spreadB", "spreadN", "verdict")
	status := 0
	for _, wl := range manifest.Workloads {
		if base[wl.Name] == nil && cand[wl.Name] == nil {
			continue // neither side ran it
		}
		for _, d := range manifest.EndToEnd {
			b, c := base[wl.Name][d.Name], cand[wl.Name][d.Name]
			if len(b) == 0 || len(c) == 0 {
				// A side that dropped a metric must not pass for lack of a row.
				fmt.Fprintf(w, "%-9s %-15s %12s %12s %7s %6.2f %7s %7s  missing (%d base, %d new values)\n",
					wl.Name, d.Name, "-", "-", "-", d.Bound, "-", "-", len(b), len(c))
				status = 1
				continue
			}
			v := verdict(b, c, d)
			if v == "worse" {
				status = 1
			}
			mb, mc := medianOf(b), medianOf(c)
			fmt.Fprintf(w, "%-9s %-15s %12.5g %12.5g %7.3f %6.2f %7.3f %7.3f  %s\n",
				wl.Name, d.Name, mb, mc, ratio(mc, mb), d.Bound, spread(b), spread(c), v)
		}
	}
	return status
}
