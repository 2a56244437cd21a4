// Command bench is the repository's end-to-end benchmark: it drives the
// endpoint, transport and stream layers from one process over loopback
// UDP on six named workloads, verifies every delivered byte, and prints
// every metric by name and unit. See README.md in this directory.
//
//	bash bench/run.sh --workload bulk4 --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out run1.json
//	bash bench/run.sh compare base1.json,base2.json new1.json,new2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Result is the document --out writes: where and how the run was made,
// and one entry per workload.
type Result struct {
	Fingerprint Fingerprint       `json:"fingerprint"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       bool              `json:"trace"`
	Workloads   []*WorkloadResult `json:"workloads"`
}

// settle is how long the process idles between two workloads of one
// invocation; run.sh idles as long before the first. On the 2-vCPU VM the
// bounds were fixed on, a light workload (objects) costs 35 % more CPU per
// byte, for as long as it runs, when it starts right after a busy one;
// a few idle seconds clear that. Without the pause a result would depend
// on what ran before it.
const settle = 3 * time.Second

// manifestPath is where BENCHMARK.json is: run.sh starts the program in
// the repository root.
const manifestPath = "BENCHMARK.json"

func main() {
	if err := loadManifest(manifestPath); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v (run from the repository root)\n", err)
		os.Exit(2)
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for relay loss verdicts and stream payloads")
		seconds  = flag.Int("seconds", 10, "seconds measured per workload")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out      = flag.String("out", "", "write the full result document to this file")
		spansOut = flag.String("spans", "", "traced run: write the spans to this file as JSON lines")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	var run []*spec
	if *workload == "all" {
		for i := range specs {
			run = append(run, &specs[i])
		}
	} else if sp := specByName(*workload); sp != nil {
		run = append(run, sp)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	// Fixed so that a result does not depend on how many cores the host
	// happens to have beyond the four the endpoint's shard default uses.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	res := Result{Fingerprint: fingerprint(), Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	o := runOpts{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, repeats: setupRepeats}
	var logs []*spanLog
	failed := 0
	for i, sp := range run {
		if i > 0 {
			time.Sleep(settle)
		}
		if o.trace {
			o.spans = newSpanLog(sp.name)
			logs = append(logs, o.spans)
		}
		wr, err := runWorkload(sp, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		res.Workloads = append(res.Workloads, wr)
		failed += wr.Failed
		printResult(wr)
	}
	if *out != "" {
		if err := writeJSON(*out, &res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, logs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		// The result lines above already say correct:false; the exit
		// status says it to a caller that reads nothing.
		os.Exit(1)
	}
}

// printResult prints every metric by name and unit, then the one-line
// JSON object the benchmark contract asks for as the last line.
func printResult(wr *WorkloadResult) {
	fmt.Printf("# %s: %d attempted, %d failed, %d latency samples (tail at %s)\n",
		wr.Name, wr.Attempted, wr.Failed, wr.Samples, wr.TailLevel)
	for _, n := range wr.Notes {
		fmt.Printf("#   %s\n", n)
	}
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := wr.Metrics[n]
		fmt.Printf("%-10s %-36s %14.6g %s\n", wr.Name, n, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, wr.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
