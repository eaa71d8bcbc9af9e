// Command benchsnap holds a campaign benchmark snapshot against the
// checked-in baseline:
//
//	bash campaignbench/run.sh --workload all --seed 1 --seconds 1 --out cur.json
//	go build ./cmd/benchsnap && ./benchsnap BENCH_campaign.json cur.json
//
// It prints each snapshot's Go version, commit and host, then each
// workload's allocs_per_trial against the baseline's. It exits 1 when a
// workload is over the bound (internal/benchsnap.AllocsBound), missing or
// without the metric, or when the schemas differ; and 2 when it cannot
// compare: a wrong argument count, an unreadable snapshot, or a workload
// measured at another executor width than the baseline's. Run the built
// binary to see these statuses: `go run` reports every failure as 1.
package main

import (
	"fmt"
	"os"

	"racefuzzer/internal/benchsnap"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchsnap BASELINE CURRENT")
		return 2
	}
	var snaps [2]*benchsnap.Snapshot
	for i, path := range args {
		s, err := benchsnap.Load(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			return 2
		}
		commit := s.Provenance.Commit
		if commit == "" {
			commit = "unknown" // built outside a git checkout
		}
		fmt.Printf("%s: %s, commit %s, %d cores (%s)\n",
			path, s.Provenance.Go, commit, s.Host.Cores, s.Host.CPU)
		snaps[i] = s
	}
	margins, failures, err := benchsnap.Compare(snaps[0], snaps[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: refusing to compare: %v\n", err)
		return 2
	}
	for _, m := range margins {
		fmt.Printf("ok    %s\n", m)
	}
	for _, f := range failures {
		fmt.Printf("FAIL  %s\n", f)
	}
	if len(failures) > 0 {
		fmt.Printf("benchsnap: %d failure(s) against %s\n", len(failures), args[0])
		return 1
	}
	return 0
}
