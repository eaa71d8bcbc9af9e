package core

import (
	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
)

// RaceWitnessPolicy wraps any scheduling policy and passively watches for
// the moment the target pair's two statements are simultaneously pending on
// the same memory location with a write — i.e. the race condition has been
// created by the inner scheduler (the two events could execute temporally
// next to each other). It makes no scheduling decisions of its own.
//
// This is how the repository measures the paper's comparison baselines: the
// probability that a *simple random* (or default-like) scheduler happens to
// create the race that RaceFuzzer creates deliberately (§3.2, Table 1
// column 10's default-scheduler runs).
type RaceWitnessPolicy struct {
	// Inner is the actual scheduling policy (e.g. sched.RandomPolicy).
	Inner sched.Policy
	// Target is the statement pair to watch for.
	Target event.StmtPair

	hit bool
}

// NewRaceWitnessPolicy wraps inner to watch for target.
func NewRaceWitnessPolicy(inner sched.Policy, target event.StmtPair) *RaceWitnessPolicy {
	return &RaceWitnessPolicy{Inner: inner, Target: target}
}

// Name implements sched.Policy.
func (p *RaceWitnessPolicy) Name() string { return "witness(" + p.Inner.Name() + ")" }

// Hit reports whether the race condition was ever created.
func (p *RaceWitnessPolicy) Hit() bool { return p.hit }

// Step implements sched.Policy.
func (p *RaceWitnessPolicy) Step(v *sched.View, r *rng.Rand) sched.Decision {
	if !p.hit {
		// Collect pending target ops among all live threads whose op is
		// executable now or merely pending; adjacency requires both enabled.
		var ops []sched.Op
		for _, tid := range v.Enabled {
			op := v.Op(tid)
			if op.IsMem() && p.Target.Contains(op.Stmt) {
				ops = append(ops, op)
			}
		}
		for i := 0; i < len(ops) && !p.hit; i++ {
			for j := i + 1; j < len(ops); j++ {
				if ops[i].ConflictsWith(ops[j]) {
					p.hit = true
					break
				}
			}
		}
	}
	return p.Inner.Step(v, r)
}

// BaselineProbability estimates, over trials executions with derived seeds,
// the probability that the given scheduler creates the target race. Used
// for the Figure-2 sweep and the "Simple" comparisons.
func BaselineProbability(prog Program, pair event.StmtPair, mkPolicy func() sched.Policy, trials int, seed int64, maxSteps int) float64 {
	hits := 0
	for i := 0; i < trials; i++ {
		w := NewRaceWitnessPolicy(mkPolicy(), pair)
		sched.Run(prog, sched.Config{Seed: seed + int64(i)*101 + 3, Policy: w, MaxSteps: maxSteps})
		if w.Hit() {
			hits++
		}
	}
	return float64(hits) / float64(trials)
}

// BaselineExceptions counts, over trials executions, how many runs under the
// given scheduler threw at least one model exception — Table 1's column 10
// (exceptions under the default scheduler).
func BaselineExceptions(prog Program, mkPolicy func() sched.Policy, trials int, seed int64, maxSteps int) int {
	n := 0
	for i := 0; i < trials; i++ {
		res := sched.Run(prog, sched.Config{Seed: seed + int64(i)*101 + 3, Policy: mkPolicy(), MaxSteps: maxSteps})
		if len(res.Exceptions) > 0 {
			n++
		}
	}
	return n
}
