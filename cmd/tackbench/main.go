// Command tackbench regenerates the TACK paper's evaluation tables and
// figures, and the A/B comparisons behind the features grown on top of the
// paper, from the simulated substrate.
//
// Usage:
//
//	tackbench list                 # list experiment ids
//	tackbench all [-quick]         # run everything
//	tackbench fig3 ab-hol ...      # run specific experiments
//	tackbench run [-path wlan] [-trace out.jsonl] [-json]   # one traced flow
//
// Flags:
//
//	-quick   reduced durations/ensembles (CI-friendly)
//	-seed N  RNG seed (default 1)
//
// The run subcommand drives one traced flow and has its own flag set (see
// tackbench run -h); its -trace output is the input format of cmd/tacktrace.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/tacktp/tack/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced durations and ensembles")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tackbench [-quick] [-seed N] list | all | <id>... | run [flags]\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", experiments.IDs())
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	opt := experiments.Options{Quick: *quick, Seed: *seed}
	var ids []string
	switch args[0] {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	case "run":
		runCmd(args[1:])
		return
	case "all":
		ids = experiments.IDs()
	default:
		ids = args
	}
	failed := false
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			failed = true
			continue
		}
		fmt.Println(res.String())
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
