package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/progen"
	"racefuzzer/internal/sched"
)

// workloadNames lists the workloads in the order "all" runs them.
var workloadNames = []string{"table1", "phase1", "progen", "fleet"}

func newWorkload(name string, sz size) (workload, bool) {
	switch name {
	case "table1":
		return table1{sz}, true
	case "phase1":
		return phase1{sz}, true
	case "progen":
		return progenWork{sz}, true
	case "fleet":
		return fleetWork{sz}, true
	}
	return nil, false
}

// size is the work of one pass of each workload. The benchmark runs
// fullSize; the package test runs a far smaller one.
type size struct {
	table1Trials int // phase-2 trials per potential pair
	phase1Trials int // observations per registry model
	programs     int // generated programs per progen pass
	progenTrials int // phase-2 trials per progen target
	fleetBudget  int // phase-2 trial budget of one fleet campaign
}

var fullSize = size{
	table1Trials: 100, // the paper's phase-2 budget per pair
	phase1Trials: 200,
	programs:     16,
	progenTrials: 4,
	fleetBudget:  3000,
}

const (
	// progenPhase1Trials is the observation count of each progen pipeline.
	progenPhase1Trials = 4
	// warmPhase1Trials and warmPhase2Trials size the untimed warm-up pass
	// that set-up ends with.
	warmPhase1Trials = 20
	warmPhase2Trials = 5
)

// progenShape is the generated program shape: six threads give larger
// postponed and enabled sets than the registry models, and nested locks
// taken in random order give lock-order cycles for deadlock phase 2.
var progenShape = progen.Config{Threads: 6, Vars: 4, Locks: 3, OpsPerThread: 12}

// raceOptions is a registry model's Table 1 configuration.
func raceOptions(b bench.Benchmark, seed int64, phase2, width int) core.Options {
	return core.Options{
		Seed: seed, Phase1Trials: b.Phase1Trials, Phase2Trials: phase2,
		MaxSteps: b.MaxSteps, Workers: width,
	}
}

// analyzeRaces is the race pipeline: core.Analyze, or its trial-by-trial
// re-drive when traced.
func analyzeRaces(l *ledger, prog core.Program, o core.Options) ([]event.StmtPair, []pairVerdict) {
	if l != nil {
		return l.tracedRaces(prog, o)
	}
	rep := core.Analyze(prog, o)
	out := make([]pairVerdict, len(rep.Pairs))
	for i, p := range rep.Pairs {
		out[i] = pairVerdict{p.Pair, p.RaceRuns, p.FirstRaceTrial, p.ExceptionRuns, p.TotalSteps}
	}
	return rep.Potential, out
}

// detectRaces is the race pipeline's phase 1 alone.
func detectRaces(l *ledger, prog core.Program, o core.Options) []event.StmtPair {
	if l != nil {
		return l.tracedPotential(prog, o)
	}
	return core.DetectPotentialRaces(prog, o)
}

func analyzeDeadlocks(l *ledger, prog core.Program, o core.Options) []hitVerdict {
	if l != nil {
		return l.tracedDeadlocks(prog, o)
	}
	reps := core.AnalyzeDeadlocks(prog, o)
	out := make([]hitVerdict, len(reps))
	for i, r := range reps {
		out[i] = hitVerdict{cycleName(r.Cycle.Locks), r.DeadlockRuns, r.FirstTrial, 0}
	}
	return out
}

func analyzeAtomicity(l *ledger, prog core.Program, o core.Options) []hitVerdict {
	if l != nil {
		return l.tracedAtomicity(prog, o)
	}
	reps := core.AnalyzeAtomicity(prog, o)
	out := make([]hitVerdict, len(reps))
	for i, r := range reps {
		out[i] = hitVerdict{blockName(r.Target), r.ViolationRuns, r.FirstTrial, r.ExceptionRuns}
	}
	return out
}

// table1 is the paper's Table 1: every registry model, both phases.
type table1 struct{ size }

func (table1) setup(seed int64) error {
	for _, b := range bench.All() {
		analyzeRaces(nil, b.New(), raceOptions(b, seed, warmPhase2Trials, 1))
	}
	return nil
}

func (w table1) pass(seed int64, width int, l *ledger) (passOut, error) {
	var out passOut
	v := newVerdicts()
	for _, b := range bench.All() {
		o := raceOptions(b, seed, w.table1Trials, width)
		prog := b.New()
		end := l.begin("model", b.Name)
		start := time.Now()
		pot, pairs := analyzeRaces(l, prog, o)
		out.wall += time.Since(start)
		end()
		out.execs += int64(phase1Count(o) + len(pot)*o.Phase2Trials)
		out.ops++
		v.races(b.Name, pot, pairs)
		real := realCount(pairs)
		if !withinExpect(b.Expect, len(pot), real) {
			fmt.Printf("check: table1 pass %d: %s outside its Expect bounds (%d potential, %d real)\n", seed, b.Name, len(pot), real)
			out.failed++
		}
	}
	out.digest = v.sum()
	return out, nil
}

// withinExpect checks a model's verdict against the registry's ground truth.
func withinExpect(e bench.Expect, potential, real int) bool {
	return potential >= e.MinPotential && real >= e.MinReal && (e.MaxReal < 0 || real <= e.MaxReal)
}

func realCount(pairs []pairVerdict) int {
	n := 0
	for _, p := range pairs {
		if p.runs > 0 {
			n++
		}
	}
	return n
}

// phase1 is the detector-only workload: phase 1 of every registry model.
type phase1 struct{ size }

func (phase1) setup(seed int64) error {
	for _, b := range bench.All() {
		o := raceOptions(b, seed, 0, 1)
		o.Phase1Trials = warmPhase1Trials
		detectRaces(nil, b.New(), o)
	}
	return nil
}

func (w phase1) pass(seed int64, width int, l *ledger) (passOut, error) {
	var out passOut
	v := newVerdicts()
	for _, b := range bench.All() {
		o := raceOptions(b, seed, 0, width)
		o.Phase1Trials = w.phase1Trials
		prog := b.New()
		end := l.begin("model", b.Name)
		start := time.Now()
		pot := detectRaces(l, prog, o)
		out.wall += time.Since(start)
		end()
		out.execs += int64(o.Phase1Trials)
		out.ops++
		v.races(b.Name, pot, nil)
		if len(pot) < b.Expect.MinPotential {
			fmt.Printf("check: phase1 pass %d: %s reported %d potential pairs, want >= %d\n", seed, b.Name, len(pot), b.Expect.MinPotential)
			out.failed++
		}
	}
	out.digest = v.sum()
	return out, nil
}

// progenWork is the generated-program workload: the race, deadlock and
// atomicity pipelines over programs derived from the pass seed.
type progenWork struct{ size }

// program derives the j-th program of a pass; consecutive pass seeds never
// share a program.
func (w progenWork) program(pass int64, j int) int64 { return pass*int64(w.programs) + int64(j) }

// setup generates every program of the run's pass cycle and, as its warm-up,
// observes one random execution of each with the hybrid detector. That
// interns all their statement labels, so the interning table stops growing
// before the first measured pass.
func (w progenWork) setup(seed int64) error {
	for pass := seed; pass < seed+passCycle; pass++ {
		for j := 0; j < w.programs; j++ {
			ps := w.program(pass, j)
			sched.Run(progen.Generate(ps, progenShape).Body(nil),
				sched.Config{Seed: ps, Observers: []sched.Observer{hybrid.New()}})
		}
	}
	return nil
}

func (w progenWork) pass(seed int64, width int, l *ledger) (passOut, error) {
	var out passOut
	v := newVerdicts()
	for j := 0; j < w.programs; j++ {
		ps := w.program(seed, j)
		prog := progen.Generate(ps, progenShape).Body(nil)
		name := fmt.Sprintf("gen%d", ps)
		o := core.Options{Seed: ps, Phase1Trials: progenPhase1Trials, Phase2Trials: w.progenTrials, Workers: width}
		end := l.begin("program", name)
		start := time.Now()
		pot, pairs := analyzeRaces(l, prog, o)
		cycles := analyzeDeadlocks(l, prog, o)
		blocks := analyzeAtomicity(l, prog, o)
		out.wall += time.Since(start)
		end()
		out.execs += int64(3*o.Phase1Trials + o.Phase2Trials*(len(pot)+len(cycles)+len(blocks)))
		out.ops += 3
		v.races(name, pot, pairs)
		v.hits("deadlock", name, cycles)
		v.hits("atomicity", name, blocks)
	}
	out.digest = v.sum()
	return out, nil
}

// pairVerdict is one race pair's phase-2 outcome.
type pairVerdict struct {
	pair  event.StmtPair
	runs  int   // race-creating trials
	first int   // first race-creating trial, -1 when none
	exc   int   // race-creating trials that then threw
	steps int64 // scheduler steps over all trials
}

// hitVerdict is one deadlock cycle's or atomic block's phase-2 outcome.
type hitVerdict struct {
	target string
	runs   int // trials that hit the target
	first  int // first hitting trial, -1 when none
	exc    int // hitting trials that then threw (atomicity only)
}

// verdicts hashes a pass's verdicts: per target in order, the potential
// targets, hit runs, first hit trial, exception runs and total steps.
// Statement pairs are written by label in sorted order, because a pair's
// numeric order depends on which statement the process interned first.
type verdicts struct{ h hash.Hash }

func newVerdicts() *verdicts { return &verdicts{h: sha256.New()} }

func pairName(p event.StmtPair) string {
	a, b := p.A.Name(), p.B.Name()
	if b < a {
		a, b = b, a
	}
	return "(" + a + ", " + b + ")"
}

func (v *verdicts) races(target string, potential []event.StmtPair, pairs []pairVerdict) {
	fmt.Fprintf(v.h, "race %s %d\n", target, len(potential))
	for _, p := range potential {
		fmt.Fprintf(v.h, "  %s\n", pairName(p))
	}
	for _, p := range pairs {
		fmt.Fprintf(v.h, "  %s runs=%d first=%d exc=%d steps=%d\n", pairName(p.pair), p.runs, p.first, p.exc, p.steps)
	}
}

func (v *verdicts) hits(kind, target string, hs []hitVerdict) {
	fmt.Fprintf(v.h, "%s %s %d\n", kind, target, len(hs))
	for _, x := range hs {
		fmt.Fprintf(v.h, "  %s runs=%d first=%d exc=%d\n", x.target, x.runs, x.first, x.exc)
	}
}

func (v *verdicts) sum() string { return hex.EncodeToString(v.h.Sum(nil)) }
