// Package racefuzzer is a Go implementation of race-directed random testing
// — RaceFuzzer — from Koushik Sen's PLDI 2008 paper "Race Directed Random
// Testing of Concurrent Programs".
//
// RaceFuzzer is a two-phase active-testing technique:
//
//  1. An imprecise but predictive detector (hybrid lockset + happens-before
//     race detection) observes executions of a concurrent program and
//     reports pairs of statements that could potentially race.
//  2. For each reported pair, a race-directed random scheduler re-executes
//     the program: threads are scheduled randomly, but any thread about to
//     execute a statement of the pair is postponed until another thread
//     arrives at the pair touching the same memory location (with at least
//     one write). At that instant a real race has been created — no false
//     positive is possible — and the scheduler resolves it with a coin
//     flip, so errors caused by either order (exceptions, crashes) surface.
//
// Every execution is a deterministic function of one RNG seed, so a
// race-revealing run is replayed by re-running with the same seed — no
// event recording needed.
//
// Because Go's own goroutine scheduler cannot be controlled deterministically,
// programs under test are model programs written against the conc package
// (racefuzzer/internal/conc): explicit threads, instrumented shared
// variables, and Java-monitor-style locks, executed under a deterministic
// cooperative scheduler. See DESIGN.md for the substitution argument and
// EXPERIMENTS.md for the reproduction of the paper's evaluation.
//
// # Quick start
//
//	prog := func(t *racefuzzer.Thread) {
//		x := conc.NewVar(t, "x", 0)
//		l := conc.NewMutex(t, "L")
//		t1 := t.Fork("writer", func(c *racefuzzer.Thread) { x.Set(c, 1) })
//		l.Lock(t)
//		l.Unlock(t)
//		_ = x.Get(t)
//		t.Join(t1)
//	}
//	report := racefuzzer.Analyze(prog, racefuzzer.Options{Seed: 1})
//	for _, pair := range report.Pairs {
//		fmt.Println(pair) // real race? probability? exceptions?
//	}
package racefuzzer

import (
	"racefuzzer/internal/core"
	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

// Thread is a model thread handle; model programs receive their current
// thread explicitly.
type Thread = sched.Thread

// Program is a model program: the body of its main thread.
type Program = core.Program

// Options parameterizes the pipeline (seeds, trial counts, step bounds).
type Options = core.Options

// StmtPair is an unordered pair of statement labels — the unit phase 1
// reports and phase 2 targets.
type StmtPair = event.StmtPair

// Report is the full two-phase outcome: potential pairs and their verdicts.
type Report = core.Report

// PairReport is the phase-2 verdict for one pair: real or false alarm, the
// race-creation probability, and any exceptions its resolution exposed.
type PairReport = core.PairReport

// RunReport is the outcome of a single race-directed execution.
type RunReport = core.RunReport

// RealRace is a race condition RaceFuzzer actually created.
type RealRace = core.RealRace

// Result summarizes one scheduler execution (exceptions, deadlock, steps).
type Result = sched.Result

// Exception records a model-level exception that killed a thread.
type Exception = sched.Exception

// Analyze runs the complete two-phase pipeline on prog: hybrid detection to
// propose potentially racing pairs, then race-directed fuzzing of each pair.
func Analyze(prog Program, o Options) *Report {
	return core.Analyze(prog, o)
}

// DetectPotentialRaces runs phase 1 only.
func DetectPotentialRaces(prog Program, o Options) []StmtPair {
	return core.DetectPotentialRaces(prog, o)
}

// FuzzPair runs phase 2 for one pair: Options.Phase2Trials race-directed
// executions with derived seeds, aggregated into a verdict.
func FuzzPair(prog Program, pair StmtPair, pairIndex int, o Options) PairReport {
	return core.FuzzPair(prog, pair, pairIndex, o)
}

// FuzzRun performs one race-directed execution with an explicit seed.
func FuzzRun(prog Program, pair StmtPair, seed int64, o Options) *RunReport {
	return core.FuzzRun(prog, pair, seed, o)
}

// Replay re-executes a prior run from its seed — the paper's lightweight
// deterministic replay.
func Replay(prog Program, pair StmtPair, seed int64, o Options) *RunReport {
	return core.FuzzRun(prog, pair, seed, o)
}

// StmtFor interns a statement label, for model programs that label their
// statements explicitly rather than by source position.
func StmtFor(name string) event.Stmt { return event.StmtFor(name) }

// MakeStmtPair builds a normalized statement pair.
func MakeStmtPair(a, b event.Stmt) StmtPair { return event.MakeStmtPair(a, b) }

// The generalized active-testing pipelines (§1 of the paper): the same
// predict-then-direct structure applied to deadlocks and atomicity
// violations.

// DeadlockReport is the verdict for one potential lock cycle.
type DeadlockReport = core.DeadlockReport

// AtomicityReport is the verdict for one inferred atomic block.
type AtomicityReport = core.AtomicityReport

// AnalyzeDeadlocks predicts potential deadlocks from lock-order-graph
// cycles, then confirms each by deadlock-directed scheduling.
func AnalyzeDeadlocks(prog Program, o Options) []DeadlockReport {
	return core.AnalyzeDeadlocks(prog, o)
}

// AnalyzeAtomicity infers intended-atomic read-modify-write blocks and
// confirms violations by interleaving an interferer inside each block.
func AnalyzeAtomicity(prog Program, o Options) []AtomicityReport {
	return core.AnalyzeAtomicity(prog, o)
}
