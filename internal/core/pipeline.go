package core

import (
	"fmt"
	"strings"
	"time"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// Program is a model program: the body of its main thread. Everything the
// program does must go through the conc/sched instrumentation API.
type Program func(*sched.Thread)

// Options parameterizes the two-phase pipeline.
type Options struct {
	// Seed is the base seed; trial i uses Seed + i (phase 1) or a derived
	// per-pair stream (phase 2), so campaigns are fully reproducible.
	Seed int64
	// Phase1Trials is the number of random-scheduler executions observed by
	// the hybrid detector; their pair sets are unioned. Default 3.
	Phase1Trials int
	// Phase2Trials is the number of RaceFuzzer executions per potential pair
	// (the paper uses 100 to estimate the hit probability). Default 100.
	Phase2Trials int
	// MaxSteps bounds each execution (0 = sched.DefaultMaxSteps).
	MaxSteps int
	// MaxPostponeAge configures every directed policy's livelock monitor
	// (see RaceFuzzerPolicy): 0 means DefaultMaxPostponeAge, <0 turns it off.
	MaxPostponeAge int
	// Workers bounds the campaign executor's parallelism: 0 or 1 runs every
	// trial sequentially on the caller's goroutine, N > 1 fans independent
	// trials across N workers, and any negative value uses runtime.NumCPU().
	// Reports, per-target fields and witness paths are bit-identical at any
	// worker count: each trial's schedule is a pure function of its derived
	// seed, and trial results are merged in trial order (see parallel.go).
	// Programs must allocate their state per invocation (as every registry
	// model does) so independent trials can execute concurrently.
	Workers int
	// Round stamps emitted records with the adaptive campaign's 1-based
	// allocation round (0 = not a budgeted campaign). See RunRecord.Round.
	Round int

	// Label annotates telemetry records with the campaign's name (usually
	// the benchmark under test).
	Label string
	// Corpus, when non-nil, deduplicates confirmed findings against the
	// persistent race corpus (internal/corpus): each target's first
	// confirming run is reported under its canonical signature and marked
	// new or known on the report and the run record, witness auto-capture
	// is skipped for known signatures (the corpus already holds their
	// regression baseline), and every confirming trial feeds the
	// (signature, resolution-branch) interleaving-coverage map. All corpus
	// calls happen on the ordered merge goroutine, so verdicts are
	// bit-identical at any Workers setting.
	Corpus *corpus.Store
	// Probes is the campaign's observation set.
	Probes
}

// Probes is everything a campaign can attach to observe itself: captures,
// telemetry and profiling. Every probe is passive — attaching any of them
// never changes a schedule, a verdict or a report — and the zero value
// observes nothing. The harness and the CLI build one
// Probes and hand it down whole.
type Probes struct {
	// TraceDir, when non-empty, enables witness auto-capture: the first
	// trial of each target that confirms its goal (real race, real deadlock,
	// real violation) is re-run with a flight recorder — determinism makes
	// the re-run the same execution — and archived there as a replayable
	// *.trace.jsonl recording. The path is surfaced on the run's record
	// (RunRecord.Trace) and the target's report.
	TraceDir string
	// PerfDir, when non-empty, exports a performance timeline for the first
	// confirming trial of each target: the trial is re-run with a
	// standalone schedprof trial attached — determinism makes the re-run
	// the same execution — and saved there as a Chrome trace-event
	// *.perf.json file, loadable in Perfetto or chrome://tracing. The path
	// is surfaced on the run's record (RunRecord.Perf) and the target's
	// report.
	PerfDir string
	// Timing opts into per-run wall-clock timing on emitted records
	// (RunRecord.DurationNs). Off by default: wall time is the one
	// nondeterministic column, and leaving it zeroed keeps JSONL run logs
	// bit-identical across repeat runs — the invariant CI's golden report
	// test and the analytics determinism contract rely on.
	Timing bool
	// Sink, when non-nil, receives one structured record per execution:
	// the JSONL run log, the -metrics fold (analytics.Live), or both
	// (obs.MultiSink).
	// It is a campaign's only record channel.
	Sink obs.Sink
	// Prof, when non-nil, attaches a pooled schedprof trial to every
	// execution and folds it back campaign-wide: decision rounds, grants,
	// switches and policy actions by kind, enabled-set sizes, per-op-kind
	// wait/service latency and phase timings (the observatory's
	// /debug/perf and -metrics' scheduler table). Costs one nil check per
	// probe site when absent and never perturbs schedules.
	Prof *schedprof.Collector
}

// observing reports whether run records should be built and emitted at all.
func (o Options) observing() bool { return o.Sink != nil }

// emit delivers one run record, labelled, to the sink.
func (o Options) emit(rec obs.RunRecord) {
	rec.Label = o.Label
	o.Sink.Emit(rec)
}

// runRecord assembles the common fields of a run record from a scheduler
// result and the run's wall time. Phase-1 records carry no exception kinds.
func (o Options) runRecord(phase int, kind string, pairIndex, trial int, seed int64, res *sched.Result, wall time.Duration) obs.RunRecord {
	rec := obs.RunRecord{
		Phase: phase, Kind: kind, PairIndex: pairIndex, Trial: trial, Round: o.Round,
		Seed: seed, StepsToRace: -1, Deadlock: res.Deadlock != nil, Aborted: res.Aborted,
		Steps: res.Steps,
	}
	if phase == 2 {
		rec.Exceptions = runExceptionKinds(res)
	}
	// Wall time only when the campaign opted into -timing (zeroed otherwise
	// — see RunRecord.DurationNs).
	if o.Timing {
		rec.DurationNs = wall.Nanoseconds()
	}
	return rec
}

// WithDefaults resolves unset (<= 0) trial counts to the defaults every
// pipeline runs with: 3 phase-1 observations, 100 phase-2 trials per target.
func (o Options) WithDefaults() Options {
	if o.Phase1Trials <= 0 {
		o.Phase1Trials = 3
	}
	if o.Phase2Trials <= 0 {
		o.Phase2Trials = 100
	}
	return o
}

// pairSeed derives the seed of phase-2 trial i for pair index pi.
func pairSeed(base int64, pi, i int) int64 {
	return base + int64(pi)*1_000_003 + int64(i)*7_919 + 1
}

// DetectPotentialRaces is phase 1: run the program under the simple random
// scheduler with the hybrid detector attached and union the potentially
// racing statement pairs over the trials.
func DetectPotentialRaces(prog Program, o Options) []event.StmtPair {
	union := make(map[event.StmtPair]bool)
	observe(prog, o, "race", hybrid.New, releasePairs, func(pairs []event.StmtPair) {
		for _, p := range pairs {
			union[p] = true
		}
	})
	out := make([]event.StmtPair, 0, len(union))
	for p := range union {
		out = append(out, p)
	}
	event.SortStmtPairs(out)
	return out
}

// releasePairs reads d's pairs and hands d back to hybrid's pool. It runs on
// the worker that observed the run, right after the run.
func releasePairs(d *hybrid.Detector) []event.StmtPair {
	pairs := d.Pairs()
	d.Release()
	return pairs
}

// raceTarget is the race pipeline's Target: a potentially racing statement
// pair.
type raceTarget struct {
	pair      event.StmtPair
	str, name string
}

// NewRaceTarget returns the race pipeline's Target for one potentially
// racing statement pair: the target DetectTargets("race", …) reports for
// it, usable with Record and VerifyReplay.
func NewRaceTarget(pair event.StmtPair) Target { return newRaceTarget(pair) }

func newRaceTarget(pair event.StmtPair) *raceTarget {
	str := pair.String()
	return &raceTarget{pair: pair, str: str, name: "racefuzzer" + str}
}

func (t *raceTarget) Kind() string       { return "race" }
func (t *raceTarget) String() string     { return t.str }
func (t *raceTarget) seedOffset() int    { return 0 }
func (t *raceTarget) configName() string { return t.name }

func (t *raceTarget) policy(o Options) sched.Policy {
	return &RaceFuzzerPolicy{Target: t.pair, MaxPostponeAge: o.MaxPostponeAge}
}

func (t *raceTarget) outcome(pol sched.Policy, _ *sched.Result) outcome {
	races := pol.(*RaceFuzzerPolicy).Races()
	if len(races) == 0 {
		return outcome{}
	}
	// The branch is the §3 coin flip that resolved the race.
	branch := "postponed-first"
	if races[0].CandidateFirst {
		branch = "candidate-first"
	}
	return outcome{hits: len(races), step: races[0].Step, branch: branch}
}

func (t *raceTarget) signature() corpus.Signature {
	return corpus.MakeSignature("race", t.pair.A.Name(), t.pair.B.Name(), "race")
}

// RunReport is the outcome of one phase-2 execution.
type RunReport struct {
	Seed        int64
	Result      *sched.Result
	Races       []RealRace
	RaceCreated bool
}

// FuzzRun is one phase-2 execution: run prog under RaceFuzzer targeting
// pair with the given seed. Re-invoking with the same arguments replays the
// identical execution — the paper's lightweight replay.
func FuzzRun(prog Program, pair event.StmtPair, seed int64, o Options) *RunReport {
	res, pol, _ := o.trial(prog, newRaceTarget(pair), seed)
	rf := pol.(*RaceFuzzerPolicy)
	return &RunReport{Seed: seed, Result: res, Races: rf.Races(), RaceCreated: rf.RaceCreated()}
}

// PairReport aggregates the phase-2 trials for one potential pair: whether
// the race is real, the estimated probability of creating it (Table 1,
// column 11), and whether resolving it randomly exposed exceptions or
// deadlocks (columns 9 and the §5.3 bug reports).
type PairReport struct {
	Pair   event.StmtPair
	Trials int
	// RaceRuns is the number of trials in which a real race was created.
	RaceRuns int
	// Probability = RaceRuns / Trials.
	Probability float64
	// IsReal reports whether any trial created the race.
	IsReal bool
	// ExceptionRuns counts trials in which a real race was created and a
	// model exception was subsequently thrown — the evidence that the race
	// is harmful, not benign.
	ExceptionRuns int
	// ExceptionKinds lists distinct exception messages observed after races.
	ExceptionKinds []string
	// DeadlockRuns counts trials ending in a real deadlock.
	DeadlockRuns int
	// FirstRaceTrial and FirstExceptionTrial are the 0-based indices of the
	// first race-creating and first exception-throwing trial, -1 when none
	// occurred. They are the authoritative "did it happen" signals: a derived
	// seed can legitimately be 0, so the seeds below carry no sentinel.
	FirstRaceTrial      int
	FirstExceptionTrial int
	// FirstRaceSeed and FirstExceptionSeed replay a race-creating and an
	// exception-throwing trial. Only meaningful when the corresponding trial
	// index is >= 0.
	FirstRaceSeed      int64
	FirstExceptionSeed int64
	// TotalSteps sums the scheduler steps over the trials. The scheduler
	// profile (Options.Prof) carries the finer counters.
	TotalSteps int64
	// Capture holds the first race-creating trial's captures.
	Capture
}

func (p PairReport) String() string {
	verdict := "NOT CONFIRMED"
	if p.IsReal {
		verdict = "REAL RACE"
	}
	s := fmt.Sprintf("%s: %s, p=%.2f (%d/%d runs)", p.Pair, verdict, p.Probability, p.RaceRuns, p.Trials)
	if p.IsReal && p.Known {
		s += " [known]"
	}
	if p.ExceptionRuns > 0 {
		s += fmt.Sprintf(", %d runs threw (%s)", p.ExceptionRuns, strings.Join(p.ExceptionKinds, "; "))
	}
	if p.DeadlockRuns > 0 {
		s += fmt.Sprintf(", %d deadlocks", p.DeadlockRuns)
	}
	return s
}

// FuzzPair runs phase 2 for one pair: Phase2Trials independent RaceFuzzer
// executions with derived seeds. pairIndex salts the seed stream so pairs
// explore different schedules. Trials run on the campaign executor
// (Options.Workers); results are folded in trial order, so the report is
// identical at any worker count.
func FuzzPair(prog Program, pair event.StmtPair, pairIndex int, o Options) PairReport {
	rep := confirm(prog, []Target{newRaceTarget(pair)}, pairIndex, o)[0]
	rep.Pair = pair
	return rep
}

// exceptionKind reduces an exception to its class-like prefix, so distinct
// instances of e.g. ConcurrentModificationException count once.
func exceptionKind(ex sched.Exception) string {
	msg := ex.Err.Error()
	if i := strings.IndexByte(msg, ':'); i > 0 {
		return msg[:i]
	}
	return msg
}

// Report is the full two-phase outcome for one program.
type Report struct {
	Potential []event.StmtPair
	Pairs     []PairReport
}

// RealPairs returns the confirmed real races.
func (r *Report) RealPairs() []PairReport {
	var out []PairReport
	for _, p := range r.Pairs {
		if p.IsReal {
			out = append(out, p)
		}
	}
	return out
}

// RealCount returns the number of confirmed real racing pairs (Table 1,
// column 7).
func (r *Report) RealCount() int { return len(r.RealPairs()) }

// ExceptionPairCount returns the number of racing pairs whose random
// resolution threw an exception (Table 1, column 9).
func (r *Report) ExceptionPairCount() int {
	n := 0
	for _, p := range r.Pairs {
		if p.IsReal && p.ExceptionRuns > 0 {
			n++
		}
	}
	return n
}

// MeanProbability averages the hit probability over real pairs (Table 1,
// column 11 reports this per benchmark).
func (r *Report) MeanProbability() float64 {
	real := r.RealPairs()
	if len(real) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range real {
		sum += p.Probability
	}
	return sum / float64(len(real))
}

// TotalSteps sums phase-2 scheduler steps over all pairs.
func (r *Report) TotalSteps() int64 {
	var n int64
	for _, p := range r.Pairs {
		n += p.TotalSteps
	}
	return n
}

// Analyze runs the complete pipeline: phase 1, then phase 2 for every
// reported pair over one (pairIndex, trial) grid (see confirm), so the
// report is bit-identical at any worker count.
func Analyze(prog Program, o Options) *Report {
	o = o.WithDefaults()
	rep := &Report{Potential: DetectPotentialRaces(prog, o)}
	targets := make([]Target, len(rep.Potential))
	for i, p := range rep.Potential {
		targets[i] = newRaceTarget(p)
	}
	for i, pr := range confirm(prog, targets, 0, o) {
		pr.Pair = rep.Potential[i]
		rep.Pairs = append(rep.Pairs, pr)
	}
	return rep
}
