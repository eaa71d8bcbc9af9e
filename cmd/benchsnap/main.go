// Command benchsnap measures a benchmark suite and writes (or checks) the
// checked-in BENCH_*.json snapshot:
//
//	benchsnap -suite sched                    # measure, write BENCH_sched.json
//	benchsnap -suite sched -out /tmp/s.json   # measure, write elsewhere
//	benchsnap -suite sched -check             # measure, compare to BENCH_sched.json
//	benchsnap -suite parallel -benchtime 2s   # slower, steadier numbers
//	benchsnap -suite sched -check -perfdir a  # also export a Perfetto sample trace
//
// With -check the tool exits 1 on hard regressions (allocs/op growth beyond
// tolerance, benchmarks missing vs the baseline, schema mismatch) and prints
// wall-clock drift as warnings only — CI gates on what the machine can't
// excuse. The sched suite also exports one profiled trial as a Chrome
// trace-event JSON into -perfdir (open in https://ui.perfetto.dev), which CI
// uploads as the failure artifact.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"racefuzzer/internal/benchsnap"
)

func main() {
	defaults := benchsnap.DefaultCheckOptions()
	var (
		suite     = flag.String("suite", "sched", "suite to run: "+strings.Join(benchsnap.Suites(), ", "))
		out       = flag.String("out", "", "snapshot output path (default BENCH_<suite>.json; \"-\" = stdout only)")
		check     = flag.Bool("check", false, "compare against -baseline instead of overwriting it; exit 1 on hard regressions")
		baseline  = flag.String("baseline", "", "baseline snapshot for -check (default BENCH_<suite>.json)")
		benchtime = flag.Duration("benchtime", 200*time.Millisecond, "minimum timed span per measurement")
		seed      = flag.Int64("seed", 12345, "base seed for measured executions")
		nsTol     = flag.Float64("tolerance", defaults.NsTolerance, "fractional ns/op growth that warns")
		allocTol  = flag.Float64("alloc-tolerance", defaults.AllocTolerance, "fractional allocs/op growth that hard-fails")
		allocSlk  = flag.Float64("alloc-slack", defaults.AllocSlack, "absolute allocs/op grace on top of -alloc-tolerance")
		perfdir   = flag.String("perfdir", "", "export a sample profiled trial as Perfetto JSON into this directory (sched suite)")
		note      = flag.String("note", "", "free-form note recorded in the snapshot")
	)
	flag.Parse()

	snap, tl, err := benchsnap.RunSuite(*suite, benchsnap.SuiteOptions{
		Seed: *seed, Benchtime: *benchtime, Note: *note,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(2)
	}
	snap.Stamp(time.Now())

	if *perfdir != "" && tl != nil {
		if err := os.MkdirAll(*perfdir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: -perfdir: %v\n", err)
			os.Exit(2)
		}
		path := filepath.Join(*perfdir, fmt.Sprintf("benchsnap-%s.perf.json", *suite))
		if err := tl.SaveFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: perf export: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("perf trace: %s\n", path)
	}

	for _, r := range snap.Results {
		fmt.Printf("%-36s %12.0f ns/op %10.0f allocs/op  (x%d)\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.Iters)
	}

	defaultArtifact := fmt.Sprintf("BENCH_%s.json", *suite)
	if *check {
		basePath := *baseline
		if basePath == "" {
			basePath = defaultArtifact
		}
		base, err := benchsnap.Load(basePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: -check: %v\n", err)
			os.Exit(2)
		}
		warns, fails := benchsnap.Compare(snap, base, benchsnap.CheckOptions{
			NsTolerance: *nsTol, AllocTolerance: *allocTol, AllocSlack: *allocSlk,
		})
		for _, w := range warns {
			fmt.Printf("WARN  %s\n", w)
		}
		for _, f := range fails {
			fmt.Printf("FAIL  %s\n", f)
		}
		// A requested -out still gets the measurement (CI uploads it next to
		// the Perfetto trace for diagnosis).
		if *out != "" && *out != "-" {
			if err := snap.Save(*out); err != nil {
				fmt.Fprintf(os.Stderr, "benchsnap: -out: %v\n", err)
				os.Exit(2)
			}
		}
		if len(fails) > 0 {
			fmt.Printf("benchsnap: %d hard regression(s) vs %s\n", len(fails), basePath)
			os.Exit(1)
		}
		fmt.Printf("benchsnap: ok vs %s (%d warning(s))\n", basePath, len(warns))
		return
	}

	dest := *out
	if dest == "" {
		dest = defaultArtifact
	}
	if dest != "-" {
		if err := snap.Save(dest); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", dest)
	}
}
