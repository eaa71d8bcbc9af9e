// Command benchtable regenerates the paper's evaluation artifacts on this
// machine's models:
//
//	benchtable                      # full Table 1 (all benchmarks)
//	benchtable -names figure1,sor   # selected rows
//	benchtable -sweep               # the Figure-2 probability sweep (§3.2)
//	benchtable -trials 100 -seed 7
//	benchtable -corpusdir corpus    # archive findings and witnesses too
//
// Output: the measured table, the paper's original numbers for side-by-side
// comparison, and (with -sweep) the probability-vs-prefix-length experiment.
// The adaptive budget campaign is racefuzzer -budget.
//
// The corpus, run-log, observatory, capture and -version flags, and the
// wiring behind them, are observatory.CLI, shared with cmd/racefuzzer:
// -corpusdir persists the findings with their witnesses (checkable by
// racefuzzer -corpusdir -regress), -json writes the JSONL run log, -http
// serves the live observatory, and SIGINT under -http or -json closes the
// run log and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/observatory"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status, so every deferred
// close (the -json run log above all) runs on every path.
func run() int {
	cli := observatory.NewCLI("benchtable", flag.CommandLine)
	var (
		names      = flag.String("names", "", "comma-separated benchmark names (default: all)")
		seed       = flag.Int64("seed", 12345, "base seed")
		trials     = flag.Int("trials", 100, "RaceFuzzer runs per potential pair")
		timingRuns = flag.Int("timing-runs", 5, "runs averaged per runtime column")
		sweep      = flag.Bool("sweep", false, "also run the Figure-2 probability sweep")
		only       = flag.Bool("sweep-only", false, "run only the Figure-2 sweep")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		verify     = flag.Bool("verify", false, "check measured rows against each model's designed ground truth")
		workers    = flag.Int("workers", 0, "trial executor workers: 0 or 1 = sequential, N = pool of N, -1 = GOMAXPROCS (tables are identical at any setting)")
	)
	flag.Parse()
	if cli.Version() {
		return 0
	}
	var list []string
	if *names != "" {
		list = strings.Split(*names, ",")
		for _, n := range list {
			if _, ok := bench.ByName(n); !ok {
				fmt.Fprintf(os.Stderr, "benchtable: unknown benchmark %q (have %s)\n", n, strings.Join(bench.Names(), ", "))
				return 2
			}
		}
	}
	if err := cli.OpenCorpus(); err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		return 1
	}
	defer cli.Close()
	if err := cli.Start("benchtable", false); err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: %v\n", err)
		return 1
	}

	if !*only {
		rows := harness.RunTable1(list, harness.Options{
			Seed: *seed, Phase2Trials: *trials, BaselineTrials: *trials, TimingRuns: *timingRuns,
			Workers: *workers, Corpus: cli.Store, Probes: cli.Probes,
		})
		if *csv {
			fmt.Print(harness.CSVTable1(rows))
		} else {
			fmt.Println(harness.RenderTable1(rows))
			fmt.Println(harness.RenderPaperTable(rows))
		}
		if code := cli.Finish(); code != 0 {
			return code
		}
		if *verify {
			out, ok := harness.VerifyAll(rows)
			fmt.Print(out)
			if !ok {
				return 1
			}
		}
	}
	if *sweep || *only {
		points := harness.Figure2Sweep([]int{5, 10, 25, 50, 100, 250, 500}, *trials, *seed)
		if *csv {
			fmt.Print(harness.CSVFigure2(points))
		} else {
			fmt.Println(harness.RenderFigure2(points))
		}
		noise := harness.NoiseSweep([]int{0, 2, 4, 8}, *trials, *seed)
		if !*csv {
			fmt.Println(harness.RenderNoise(noise))
		}
	}
	return 0
}
