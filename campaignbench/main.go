// Command campaignbench is the repository's end-to-end benchmark. Its unit
// is the paper's: scheduler executions ("trials") bought per second of
// machine time by a full campaign, at executor width runtime.NumCPU() and at
// width 1, and what each trial allocates. Run it from the repository root:
//
//	bash campaignbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//	bash campaignbench/run.sh --workload fleet --seed 3 --seconds 20 --trace 1
//	bash campaignbench/run.sh --workload all --seed 1 --out .bench_build/run.json
//
// It prints one "workload metric value unit" line per metric and, last, one
// JSON object {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check prints the result with correct=false and exits 1; a run
// that cannot execute prints no result and exits 2.
//
// # Run shape
//
// A run runs passes with seeds seed, seed+1, ... until --seconds is spent.
// Every pass runs once at width N = runtime.NumCPU() and once at width 1,
// alternating which goes first, and the two verdict digests must be equal.
// Each pair of passes is preceded by the workload's set-up — building its
// inputs and an untimed warm-up pass — and setup_s is the median set-up.
// Every workload is a closed loop: a trial or fleet unit is dispatched only
// when an executor slot or a worker frees up, and no run uses more than N
// pool goroutines or N loopback connections. Throughput is the median
// per-pass rate; the pass count and its interquartile range are printed too.
// The programs receive only inputs generated from the seed. Scratch state
// (corpora, witnesses, run logs) lives under os.MkdirTemp and is removed.
//
// # Workloads, and what each should and should not move
//
//   - table1: every registry model through core.Analyze with the registry's
//     phase-1 settings and the paper's 100 phase-2 trials per pair (Table
//     1). Phase 2 is most of the executions, so the RaceFuzzer policy, the
//     sched handoff and conc/event.CallerStmt statement labelling do most of
//     the work; corpus, sinks and fleet are absent. A policy, handoff or
//     labelling change should move it. Checks: each model's potential and
//     real counts lie within its bench.Expect bounds.
//   - phase1: every registry model through core.DetectPotentialRaces with
//     200 observations. The hybrid/vclock/lockset detector does the most
//     work and the directed policy never runs: a policy change must read as
//     no change here, and a detector change (FastTrack epochs) should show
//     its gain here. Checks: each model reports at least
//     Expect.MinPotential pairs.
//   - progen: sixteen generated programs per pass (six threads, unordered
//     nested locks) through the race, deadlock and atomicity pipelines.
//     Statements are labelled by explicit event.StmtFor, so a CallerStmt
//     change predicts no change here; it is the only workload where
//     deadlock phase 2 runs, and the one that holds the three pipelines to
//     parity.
//   - fleet: harness.RunCampaign over every registry target (budget 3000,
//     4 rounds) executed by a loopback fleet.Coordinator with N worker
//     goroutines (and 1 for the width-1 pass), into a corpus.Open store
//     with witness capture and a JSONL obs sink. It is the only workload
//     that exercises the ordered merge with corpus, sink and witness
//     writes, plus the fleet transport; round 1 mostly writes new
//     signatures and later rounds mostly deduplicate. Checks: no requeued
//     or dropped lease and no worker error, and the saved findings.jsonl,
//     coverage.jsonl and witnesses are byte-identical at 1 and N workers.
//
// An execution is one sched.Run a pipeline makes, in phase 1 or 2; witness
// re-runs are not counted, and fleet counts the campaign's phase-2 budget
// trials. End-to-end metrics (--trace 0) are listed in endToEnd;
// heap_live_p90_mb is the 90th percentile of the live heap sampled every
// 10 ms over the run.
//
// # Traced runs
//
// --trace 1 runs paired untraced passes for half of --seconds, re-runs
// their width-N passes with every layer timed at its public seam (see
// perLayer in ledger.go), checks that the traced digests equal the
// untraced ones, and prints the per-layer metrics instead of the end-to-end
// ones. Which end-to-end metric each should move, and on which workload:
//
//   - core.policy_* (table1, progen; not phase1): trials_per_s and
//     allocs_per_trial. core.race_rate, released, aged and tracked per
//     trial: none; a perf change that keeps the random draws must leave
//     them exactly as they are. core.*.confirm_ms_p50 (progen) and
//     core.executor_speedup (table1): trials_per_s.
//   - hybrid.on_event_ns, frac, events_per_trial, pairs_us (phase1, near 0
//     on table1): trials_per_s and bytes_per_trial. hybrid.warnings and
//     precision (table1; Table 1 columns 6 and 7): none, they are verdicts.
//   - deadlock.on_event_ns, atomizer.on_event_ns (progen): trials_per_s.
//   - sched.* (every pipeline workload): trials_per_s; a CallerStmt change
//     moves sched.self_ns_per_step on table1 and phase1 and not on progen.
//     The schedprof wait/service split: trials_per_s_w1 and trials_per_s.
//   - overhead.* (phase1): a hybrid change moves hybrid_us, a policy change
//     moves racefuzzer_us.
//   - harness.*, corpus.*, obs.*, flightrec.*, fleet.* (fleet):
//     trials_per_s, trials_per_s_w1 and heap_live_p90_mb; the corpus
//     counts must not change.
//   - trace.overhead_frac: 1 - traced/untraced trials_per_s.
//
// Metrics of layers a workload does not exercise print as 0. The traced run
// also writes <workload>.spans.json (Chrome trace-event JSON, loadable in
// Perfetto; workload > pass > model/program > trial, or campaign > round >
// unit > worker exec > rpc for fleet) and <workload>.cpu.pprof under
// --tracedir, the place to look for layers with no public seam yet.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"racefuzzer/internal/benchsnap"
	"racefuzzer/internal/obs"
)

// endToEnd lists the metrics an untraced run prints.
var endToEnd = []metricDef{
	{"trials_per_s", "1/s", "higher"},
	{"trials_per_s_w1", "1/s", "higher"},
	{"allocs_per_trial", "count", "lower"},
	{"bytes_per_trial", "B", "lower"},
	{"heap_live_p90_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// metric is one named measurement with its unit.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run: its metrics and its correctness tally.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Traced    bool     `json:"traced"`
	Width     int      `json:"width"`
	Passes    int      `json:"passes"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

// resultLine is the JSON object printed as the last line of a run.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "workload seed; every generated program, campaign and schedule derives from it")
		seconds  = flag.Int("seconds", 20, "measured seconds per workload run")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		traceDir = flag.String("tracedir", filepath.Join(".bench_build", "trace"), "traced runs write <workload>.spans.json and <workload>.cpu.pprof here")
		out      = flag.String("out", "", "also write the runs as a schema-versioned JSON snapshot to this file (none by default)")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "campaignbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traceDir: *traceDir}
	var runs []runResult
	exit := 0
	for _, n := range names {
		w, ok := newWorkload(n, fullSize)
		if !ok {
			fmt.Fprintf(os.Stderr, "campaignbench: unknown workload %q (have %s, all)\n", n, strings.Join(workloadNames, ", "))
			os.Exit(2)
		}
		run := runMeasured
		if *trace == 1 {
			run = runTraced
		}
		res, err := run(n, w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaignbench: %s: %v\n", n, err)
			os.Exit(2)
		}
		res.Seconds = *seconds
		printResult(res)
		runs = append(runs, res)
		if !res.Correct {
			exit = 1
		}
	}
	if *out != "" {
		if err := saveSnapshot(*out, *name, runs); err != nil {
			fmt.Fprintf(os.Stderr, "campaignbench: -out: %v\n", err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}

// printResult prints one "workload metric value unit" line per metric, then
// the JSON result line.
func printResult(r runResult) {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]valueUnit{}}
	for _, m := range r.Metrics {
		fmt.Printf("%s %s %s %s\n", r.Workload, m.Name, fmtFloat(m.Value), m.Unit)
		line.Metrics[m.Name] = valueUnit{Value: m.Value, Unit: m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	fmt.Println(string(data))
}

// fmtFloat prints v with all its digits.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// snapshotSchema versions the -out file layout.
const snapshotSchema = 1

// snapshot is the -out file: every run of the invocation, with the host and
// build it was measured on.
type snapshot struct {
	Schema     int            `json:"schema"`
	Date       string         `json:"date"`
	Host       benchsnap.Host `json:"host"`
	Provenance obs.Provenance `json:"provenance"`
	Runs       []runResult    `json:"runs"`
}

func saveSnapshot(path, workload string, runs []runResult) error {
	flags := map[string]string{}
	flag.Visit(func(f *flag.Flag) { flags[f.Name] = f.Value.String() })
	s := snapshot{
		Schema:     snapshotSchema,
		Date:       time.Now().UTC().Format("2006-01-02"),
		Host:       benchsnap.CurrentHost(),
		Provenance: obs.CollectProvenance("campaignbench", workload, flags),
		Runs:       runs,
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// executorWidth is the width N of every workload: one executor slot (or
// fleet worker) per CPU.
func executorWidth() int { return runtime.NumCPU() }
