// Package harness drives the paper's experiments end to end: for each
// benchmark model it measures the three runtime columns of Table 1 (normal
// execution, hybrid-race-detection execution, RaceFuzzer execution), runs
// the two-phase pipeline to obtain the race counts and probabilities, and
// measures the default-scheduler exception baseline. It also runs the
// Figure-2 sweep demonstrating §3.2's probability claim.
package harness

import (
	"fmt"
	"runtime"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/report"
	"racefuzzer/internal/sched"
)

// Options parameterizes a Table-1 regeneration run.
type Options struct {
	// Seed is the base seed for every derived stream.
	Seed int64
	// Phase2Trials is the number of RaceFuzzer runs per potential pair (the
	// paper uses 100). Default 100.
	Phase2Trials int
	// BaselineTrials is the number of default-scheduler runs used for the
	// "exceptions under the default scheduler" column. Default 100.
	BaselineTrials int
	// TimingRuns is the number of runs averaged per runtime column. Default 5.
	TimingRuns int
	// Workers sets the pipeline's trial executor width (core.Options.Workers):
	// 0 or 1 = sequential, N > 1 = pool of N, negative = GOMAXPROCS. Measured
	// counts and reports are identical at any setting; only the timing columns
	// reflect the parallelism.
	Workers int
	// Corpus, when non-nil, receives every confirmed finding for dedup
	// against prior campaigns (core.Options.Corpus).
	Corpus *corpus.Store
	// Probes observe every pipeline execution (core.Options.Probes): the
	// Sink and Prof see every benchmark this harness invocation measures.
	core.Probes
}

func (o Options) withDefaults() Options {
	if o.Phase2Trials <= 0 {
		o.Phase2Trials = 100
	}
	if o.BaselineTrials <= 0 {
		o.BaselineTrials = 100
	}
	if o.TimingRuns <= 0 {
		o.TimingRuns = 5
	}
	return o
}

// Row is one measured Table-1 row, alongside the paper's numbers for
// comparison.
type Row struct {
	Name  string
	Paper bench.PaperRow

	// Measured runtime columns (seconds, averaged over TimingRuns).
	NormalSec float64 // random scheduler, no observers (column 3)
	HybridSec float64 // random scheduler + hybrid detector (column 4)
	RFSec     float64 // RaceFuzzer run targeting one pair (column 5)

	// Measured counts.
	Potential        int     // column 6: pairs reported by hybrid detection
	Real             int     // column 7: pairs confirmed real by RaceFuzzer
	ExceptionPairs   int     // column 9: real pairs that threw
	SimpleExceptions int     // column 10: default-scheduler runs that threw
	Probability      float64 // column 11: mean race-hit probability

	// Tracking-work counters: what each technique must examine per run.
	// This is the machine-independent form of the paper's overhead claim —
	// hybrid tracks every shared access; RaceFuzzer tracks synchronization
	// plus the single racing pair (§4).
	HybridTracked int // MEM events processed by the hybrid detector
	RFTracked     int // target-statement encounters in one RaceFuzzer run

	// Pipeline cost columns: the full two-phase campaign's wall-clock and
	// heap-allocation cost, normalized per executed trial (phase-1
	// observations + every phase-2 run). Wall clock is machine-local;
	// allocs/run is a property of the code. Neither is gated: CI's
	// perf-smoke gates campaignbench's allocs_per_trial (internal/benchsnap).
	PipelineRuns         int
	PipelineNsPerRun     float64
	PipelineAllocsPerRun float64

	// FirstRaceRun is the index, within this benchmark's pipeline campaign,
	// of the first run that confirmed a race (-1 when none did) — the "how
	// many runs did confirmation cost" column.
	FirstRaceRun int64
	// TraceCaptures counts witness recordings archived for this benchmark
	// (0 unless Options.TraceDir is set).
	TraceCaptures int64

	// Details for per-pair inspection.
	Pairs []core.PairReport
}

// timeRuns averages the wall-clock time of n executions built by mk.
func timeRuns(n int, mk func(i int) func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		mk(i)()
	}
	return time.Since(start).Seconds() / float64(n)
}

// RunBenchmark produces one measured row for b.
func RunBenchmark(b bench.Benchmark, o Options) Row {
	o = o.withDefaults()
	row := Row{Name: b.Name, Paper: b.Paper}

	// Column 3: normal execution (random scheduler, no instrumentation
	// consumers attached).
	row.NormalSec = timeRuns(o.TimingRuns, func(i int) func() {
		return func() {
			sched.Run(b.New(), sched.Config{
				Seed: o.Seed + int64(i), Policy: sched.NewRandomPolicy(), MaxSteps: b.MaxSteps,
			})
		}
	})
	// Column 4: hybrid race detection attached (tracks every shared access).
	row.HybridSec = timeRuns(o.TimingRuns, func(i int) func() {
		return func() {
			det := hybrid.New()
			sched.Run(b.New(), sched.Config{
				Seed: o.Seed + int64(i), Policy: sched.NewRandomPolicy(), MaxSteps: b.MaxSteps,
				Observers: []sched.Observer{det},
			})
			row.HybridTracked = det.MemEvents()
			det.Release()
		}
	})

	// Phase 1 + phase 2.
	opts := core.Options{
		Seed:         o.Seed,
		Phase1Trials: b.Phase1Trials,
		Phase2Trials: o.Phase2Trials,
		MaxSteps:     b.MaxSteps,
		Label:        b.Name,
		Workers:      o.Workers,
		Corpus:       o.Corpus,
		Probes:       o.Probes,
	}
	// The pipeline's cost columns: wall clock and heap allocations across the
	// whole campaign, divided by executed trials. Mallocs is read
	// process-wide because the campaign executor's workers allocate on the
	// pipeline's behalf.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	pipeStart := time.Now()
	rep := core.Analyze(b.New(), opts)
	pipeNs := time.Since(pipeStart).Nanoseconds()
	runtime.ReadMemStats(&m1)
	row.PipelineRuns = opts.WithDefaults().Phase1Trials + len(rep.Potential)*o.Phase2Trials
	if row.PipelineRuns > 0 {
		row.PipelineNsPerRun = float64(pipeNs) / float64(row.PipelineRuns)
		row.PipelineAllocsPerRun = float64(m1.Mallocs-m0.Mallocs) / float64(row.PipelineRuns)
	}
	row.Potential = len(rep.Potential)
	row.Real = rep.RealCount()
	row.ExceptionPairs = rep.ExceptionPairCount()
	row.Probability = rep.MeanProbability()
	row.Pairs = rep.Pairs
	// Runs are emitted phase 1 first, then each pair's trials in pair
	// order, so the first confirming run's index follows from the report.
	row.FirstRaceRun = -1
	run := int64(opts.WithDefaults().Phase1Trials)
	for _, p := range rep.Pairs {
		if p.TracePath != "" {
			row.TraceCaptures++
		}
		if p.IsReal && row.FirstRaceRun < 0 {
			row.FirstRaceRun = run + int64(p.FirstRaceTrial)
		}
		run += int64(p.Trials)
	}

	// Column 5: RaceFuzzer runtime, averaged over runs targeting the first
	// pair (matching the paper: RaceFuzzer instruments only the racing pair
	// and synchronization, so this is cheaper than hybrid).
	if len(rep.Potential) > 0 {
		pair := rep.Potential[0]
		row.RFSec = timeRuns(o.TimingRuns, func(i int) func() {
			return func() {
				pol := core.NewRaceFuzzerPolicy(pair)
				sched.Run(b.New(), sched.Config{
					Seed: o.Seed + int64(i)*13 + 5, Policy: pol, MaxSteps: b.MaxSteps,
				})
				row.RFTracked = pol.Tracked()
			}
		})
	}

	// Column 10: exceptions under the default scheduler — modeled as
	// time-sliced round-robin (QuantumPolicy): every thread makes steady
	// progress, interleaving only at quantum boundaries, the way a JVM/OS
	// scheduler runs a short test. Races whose windows are narrower than a
	// quantum essentially never fire here, which is the paper's point.
	row.SimpleExceptions = core.BaselineExceptions(b.New(), func() sched.Policy {
		return sched.NewQuantumPolicy(4)
	}, o.BaselineTrials, o.Seed+99, b.MaxSteps)

	return row
}

// RunTable1 measures every named benchmark ("" selects all registered).
func RunTable1(names []string, o Options) []Row {
	if len(names) == 0 {
		names = bench.Names()
	}
	rows := make([]Row, 0, len(names))
	for _, n := range names {
		rows = append(rows, RunBenchmark(bench.MustByName(n), o))
	}
	return rows
}

// RenderTable1 renders measured rows in the paper's column layout.
func RenderTable1(rows []Row) string {
	t := report.NewTable(
		"Table 1 (reproduced): measured on this machine's models",
		"Program", "Normal(s)", "Hybrid(s)", "RF(s)", "Tracked(H)", "Tracked(RF)",
		"Hybrid#", "RF(real)", "Exceptions", "Simple", "Prob", "FirstRace", "Traces",
		"ns/run", "allocs/run",
	)
	for _, r := range rows {
		prob := report.Num(r.Probability)
		if r.Real == 0 {
			prob = "-"
		}
		first := "-"
		if r.FirstRaceRun >= 0 {
			first = fmt.Sprintf("%d", r.FirstRaceRun)
		}
		t.AddRow(r.Name,
			report.Secs(r.NormalSec), report.Secs(r.HybridSec), report.Secs(r.RFSec),
			r.HybridTracked, r.RFTracked,
			r.Potential, r.Real, r.ExceptionPairs, r.SimpleExceptions, prob,
			first, r.TraceCaptures,
			int64(r.PipelineNsPerRun), int64(r.PipelineAllocsPerRun))
	}
	return t.Render()
}

// RenderPaperTable renders the paper's original Table 1 numbers for the same
// rows, so EXPERIMENTS.md can show paper-vs-measured side by side.
func RenderPaperTable(rows []Row) string {
	t := report.NewTable(
		"Table 1 (paper's original numbers)",
		"Program", "SLOC", "Normal(s)", "Hybrid(s)", "RF(s)",
		"Hybrid#", "RF(real)", "Known", "Exceptions", "Simple", "Prob",
	)
	for _, r := range rows {
		p := r.Paper
		t.AddRow(r.Name, report.IntOrDash(p.SLOC),
			report.Num(p.NormalSec), report.Num(p.HybridSec), report.Num(p.RaceFuzzerSec),
			report.IntOrDash(p.HybridRaces), report.IntOrDash(p.RealRaces), report.IntOrDash(p.KnownRaces),
			report.IntOrDash(p.ExceptionPairs), report.IntOrDash(p.SimpleExceptions), report.Num(p.Probability))
	}
	return t.Render()
}

// SweepPoint is one prefix-length sample of the Figure-2 experiment.
type SweepPoint struct {
	PrefixLen int
	// RFProb is RaceFuzzer's race-creation probability (§3.2 claims 1.0,
	// independent of PrefixLen).
	RFProb float64
	// RFErrorFrac is the fraction of RaceFuzzer runs reaching ERROR (§3.2
	// claims 0.5).
	RFErrorFrac float64
	// SimpleProb is the simple random scheduler's race-creation probability
	// (§3.2 claims it decays with PrefixLen).
	SimpleProb float64
	// DefaultProb is the time-sliced (default-scheduler-like) policy's
	// race-creation probability.
	DefaultProb float64
}

// Figure2Sweep measures the §3.2 probability claim across prefix lengths.
func Figure2Sweep(prefixes []int, trials int, seed int64) []SweepPoint {
	if trials <= 0 {
		trials = 100
	}
	var out []SweepPoint
	for _, n := range prefixes {
		prog := bench.Figure2(n)
		opts := core.Options{Seed: seed, Phase2Trials: trials}
		pr := core.FuzzPair(prog, bench.Fig2Pair, n, opts)
		pt := SweepPoint{
			PrefixLen:   n,
			RFProb:      pr.Probability,
			RFErrorFrac: float64(pr.ExceptionRuns) / float64(pr.Trials),
		}
		pt.SimpleProb = core.BaselineProbability(prog, bench.Fig2Pair,
			func() sched.Policy { return sched.NewRandomPolicy() }, trials, seed+1, 0)
		pt.DefaultProb = core.BaselineProbability(prog, bench.Fig2Pair,
			func() sched.Policy { return sched.NewQuantumPolicy(4) }, trials, seed+2, 0)
		out = append(out, pt)
	}
	return out
}

// RenderFigure2 renders the sweep.
func RenderFigure2(points []SweepPoint) string {
	t := report.NewTable(
		"Figure 2 experiment: race-hit probability vs untracked prefix length (§3.2)",
		"PrefixLen", "RaceFuzzer", "RF ERROR frac", "SimpleRandom", "Default",
	)
	for _, p := range points {
		t.AddRow(p.PrefixLen, report.Num(p.RFProb), report.Num(p.RFErrorFrac),
			report.Num(p.SimpleProb), report.Num(p.DefaultProb))
	}
	return t.Render()
}

// NoisePoint is one sample of the robustness extension: the Figure-2 race
// with extra bystander threads.
type NoisePoint struct {
	Bystanders  int
	RFProb      float64
	RFErrorFrac float64
	SimpleProb  float64
}

// NoiseSweep measures how scheduling noise affects race-directed vs
// undirected testing: RaceFuzzer's postponement simply waits through
// bystander activity, while the random baseline's alignment chance shrinks
// with every additional runnable thread.
func NoiseSweep(bystanders []int, trials int, seed int64) []NoisePoint {
	if trials <= 0 {
		trials = 100
	}
	var out []NoisePoint
	for _, n := range bystanders {
		prog := func() core.Program { return bench.Figure2Noisy(30, n) }
		pr := core.FuzzPair(prog(), bench.Fig2Pair, n+100, core.Options{Seed: seed, Phase2Trials: trials})
		pt := NoisePoint{
			Bystanders:  n,
			RFProb:      pr.Probability,
			RFErrorFrac: float64(pr.ExceptionRuns) / float64(pr.Trials),
		}
		pt.SimpleProb = core.BaselineProbability(prog(), bench.Fig2Pair,
			func() sched.Policy { return sched.NewRandomPolicy() }, trials, seed+1, 0)
		out = append(out, pt)
	}
	return out
}

// RenderNoise renders the sweep.
func RenderNoise(points []NoisePoint) string {
	t := report.NewTable(
		"Robustness extension: Figure-2 race-hit probability vs bystander threads",
		"Bystanders", "RaceFuzzer", "RF ERROR frac", "SimpleRandom",
	)
	for _, p := range points {
		t.AddRow(p.Bystanders, report.Num(p.RFProb), report.Num(p.RFErrorFrac), report.Num(p.SimpleProb))
	}
	return t.Render()
}
