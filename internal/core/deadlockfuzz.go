package core

import (
	"fmt"
	"sort"
	"strings"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/deadlock"
	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

// The deadlock instantiation of active testing (§1): phase 1 predicts
// potential deadlocks from lock-order-graph cycles; phase 2 confirms them by
// directing the scheduler to complete each cycle. This mirrors the
// race pipeline exactly — cycle warnings play the role of racing pairs, the
// DeadlockDirectedPolicy plays the role of RaceFuzzerPolicy, and a real
// deadlock reported by the scheduler is the confirmation.

// DetectPotentialDeadlocks is the deadlock phase 1: observe Phase1Trials
// random executions with the lock-order-graph detector and union the
// cycles. The graph analysis is predictive: cycles are found even in
// executions that never deadlock.
func DetectPotentialDeadlocks(prog Program, o Options) []deadlock.Cycle {
	seen := make(map[[2]event.LockID]bool)
	var out []deadlock.Cycle
	observe(prog, o, "deadlock", deadlock.New, (*deadlock.Detector).Cycles, func(cycles []deadlock.Cycle) {
		for _, c := range cycles {
			if !seen[c.Locks] {
				seen[c.Locks] = true
				out = append(out, c)
			}
		}
	})
	return out
}

// lockCycle is the deadlock pipeline's Target: a potential lock-order cycle,
// confirmed by a deadlock that blocks a thread on one of its locks (so an
// unrelated deadlock elsewhere in the program does not confirm it).
type lockCycle struct {
	cycle deadlock.Cycle
	str   string
}

func newLockCycle(c deadlock.Cycle) *lockCycle {
	return &lockCycle{cycle: c, str: fmt.Sprintf("(%s, %s)", c.Locks[0], c.Locks[1])}
}

func (t *lockCycle) Kind() string       { return "deadlock" }
func (t *lockCycle) String() string     { return t.str }
func (t *lockCycle) seedOffset() int    { return 7_000_000 }
func (t *lockCycle) configName() string { return "" }

func (t *lockCycle) policy() sched.Policy {
	return &DeadlockDirectedPolicy{TargetLocks: &t.cycle.Locks}
}

func (t *lockCycle) outcome(_ sched.Policy, res *sched.Result) outcome {
	if d := res.Deadlock; d != nil {
		for _, b := range d.Blocked {
			if b.Lock == t.cycle.Locks[0] || b.Lock == t.cycle.Locks[1] {
				return outcome{hits: 1, step: d.Step, branch: "deadlock"}
			}
		}
	}
	return outcome{}
}

// signature is the sorted acquisition-statement labels of the cycle.
func (t *lockCycle) signature() corpus.Signature {
	names := make([]string, 0, len(t.cycle.Stmts))
	seen := make(map[string]bool, len(t.cycle.Stmts))
	for _, s := range t.cycle.Stmts {
		n := s.Name()
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	// A cycle can involve more than two acquisition sites: the tail is
	// folded into the second location slot rather than dropped.
	var a, b string
	if len(names) > 0 {
		a, b = names[0], strings.Join(names[1:], "+")
	}
	if len(names) == 1 {
		b = a
	}
	return corpus.MakeSignature("deadlock", a, b, "deadlock")
}

// report narrows the target's tally to its DeadlockReport.
func (t *lockCycle) report(p PairReport) DeadlockReport {
	return DeadlockReport{Cycle: t.cycle, Trials: p.Trials, DeadlockRuns: p.RaceRuns,
		Probability: p.Probability, IsReal: p.IsReal, FirstTrial: p.FirstRaceTrial, FirstSeed: p.FirstRaceSeed,
		Capture: p.Capture}
}

// DeadlockReport is the phase-2 verdict for one potential cycle.
type DeadlockReport struct {
	Cycle deadlock.Cycle
	// Trials is the number of directed executions.
	Trials int
	// DeadlockRuns is the number that ended in a real deadlock on the
	// cycle's locks.
	DeadlockRuns int
	// Probability = DeadlockRuns / Trials.
	Probability float64
	// IsReal reports whether any trial created the deadlock.
	IsReal bool
	// FirstTrial is the 0-based index of the first deadlocking trial, -1
	// when none (derived seeds can legitimately be 0, so the seed itself is
	// not a sentinel).
	FirstTrial int
	// FirstSeed replays a deadlocking run (meaningful when FirstTrial >= 0).
	FirstSeed int64
	// Capture holds the first deadlocking trial's captures.
	Capture
}

func (d DeadlockReport) String() string {
	verdict := "NOT CONFIRMED"
	if d.IsReal {
		verdict = "REAL DEADLOCK"
		if d.Known {
			verdict += " [known]"
		}
	}
	return fmt.Sprintf("locks %s/%s: %s, p=%.2f (%d/%d runs)",
		d.Cycle.Locks[0], d.Cycle.Locks[1], verdict, d.Probability, d.DeadlockRuns, d.Trials)
}

// AnalyzeDeadlocks runs the full deadlock pipeline over one (cycleIndex,
// trial) grid (see confirm).
func AnalyzeDeadlocks(prog Program, o Options) []DeadlockReport {
	targets := DetectTargets("deadlock", prog, o)
	out := make([]DeadlockReport, 0, len(targets))
	for i, p := range confirm(prog, targets, 0, o) {
		out = append(out, targets[i].(*lockCycle).report(p))
	}
	return out
}
