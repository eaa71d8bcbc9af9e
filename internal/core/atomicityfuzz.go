package core

import (
	"fmt"

	"racefuzzer/internal/atomizer"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

// The atomicity instantiation of active testing (§1): phase 1 infers
// intended-atomic read-modify-write blocks and their potential interferers
// (internal/atomizer); phase 2 directs the scheduler to interleave an
// interferer inside the block.

// DetectAtomicityTargets is the atomicity phase 1: observe Phase1Trials
// random executions and union the inferred candidates.
func DetectAtomicityTargets(prog Program, o Options) []AtomicityTarget {
	seen := make(map[[2]event.Stmt]bool)
	var out []AtomicityTarget
	observe(prog, o, "atomicity", atomizer.New, (*atomizer.Detector).Candidates, func(cands []atomizer.Candidate) {
		for _, c := range cands {
			if k := [2]event.Stmt{c.First, c.Second}; !seen[k] {
				seen[k] = true
				out = append(out, AtomicityTarget{First: c.First, Second: c.Second, Interferers: c.Interferers})
			}
		}
	})
	return out
}

// atomicBlock is the atomicity pipeline's Target: an intended-atomic block
// and its potential interferers.
type atomicBlock struct {
	block AtomicityTarget
	str   string
}

func newAtomicBlock(b AtomicityTarget) *atomicBlock {
	return &atomicBlock{block: b, str: fmt.Sprintf("(%s, %s)", b.First, b.Second)}
}

func (t *atomicBlock) Kind() string       { return "atomicity" }
func (t *atomicBlock) String() string     { return t.str }
func (t *atomicBlock) seedOffset() int    { return 9_000_000 }
func (t *atomicBlock) configName() string { return "" }

func (t *atomicBlock) policy(o Options) sched.Policy {
	pol := NewAtomicityDirectedPolicy(t.block)
	pol.MaxPostponeAge = o.MaxPostponeAge
	return pol
}

// outcome branches on whether the violating run threw.
func (t *atomicBlock) outcome(pol sched.Policy, res *sched.Result) outcome {
	v := pol.(*AtomicityDirectedPolicy).Violations()
	if len(v) == 0 {
		return outcome{}
	}
	branch := "clean"
	if len(res.Exceptions) > 0 {
		branch = "threw"
	}
	return outcome{hits: len(v), step: v[0].Step, branch: branch}
}

func (t *atomicBlock) signature() corpus.Signature {
	return corpus.MakeSignature("atomicity", t.block.First.Name(), t.block.Second.Name(), "violation")
}

// report narrows the target's tally to its AtomicityReport.
func (t *atomicBlock) report(p PairReport) AtomicityReport {
	return AtomicityReport{Target: t.block, Trials: p.Trials, ViolationRuns: p.RaceRuns,
		Probability: p.Probability, IsReal: p.IsReal, ExceptionRuns: p.ExceptionRuns,
		FirstTrial: p.FirstRaceTrial, FirstSeed: p.FirstRaceSeed,
		TracePath: p.TracePath, TraceErr: p.TraceErr, PerfPath: p.PerfPath, PerfErr: p.PerfErr, Known: p.Known}
}

// AtomicityReport is the phase-2 verdict for one target.
type AtomicityReport struct {
	Target AtomicityTarget
	// Trials is the number of directed executions.
	Trials int
	// ViolationRuns counts trials in which an interferer was actually
	// interleaved inside the block.
	ViolationRuns int
	// Probability = ViolationRuns / Trials.
	Probability float64
	// IsReal reports whether any trial created the violation.
	IsReal bool
	// ExceptionRuns counts violating trials that also threw.
	ExceptionRuns int
	// FirstTrial is the 0-based index of the first violating trial, -1 when
	// none (derived seeds can legitimately be 0, so the seed itself is not a
	// sentinel).
	FirstTrial int
	// FirstSeed replays a violating run (meaningful when FirstTrial >= 0).
	FirstSeed int64
	// TracePath is the auto-captured witness recording of the first
	// violating trial ("" unless Options.TraceDir was set and a violation
	// occurred); TraceErr reports a failed capture attempt.
	TracePath string
	TraceErr  error
	// PerfPath is the Perfetto timeline exported for the first violating
	// trial (see PairReport.PerfPath); PerfErr reports a failed export.
	PerfPath string
	PerfErr  error
	// Known reports that the confirmed violation's signature was already in
	// the campaign's corpus (see PairReport.Known).
	Known bool
}

func (a AtomicityReport) String() string {
	verdict := "NOT CONFIRMED"
	if a.IsReal {
		verdict = "REAL VIOLATION"
		if a.Known {
			verdict += " [known]"
		}
	}
	return fmt.Sprintf("block %s..%s: %s, p=%.2f (%d/%d runs, %d threw)",
		a.Target.First, a.Target.Second, verdict, a.Probability, a.ViolationRuns, a.Trials, a.ExceptionRuns)
}

// ConfirmAtomicity is the atomicity phase 2. Trials run on the campaign
// executor and are merged in trial order (see confirm).
func ConfirmAtomicity(prog Program, target AtomicityTarget, targetIndex int, o Options) AtomicityReport {
	t := newAtomicBlock(target)
	return t.report(confirm(prog, []Target{t}, targetIndex, o)[0])
}

// AnalyzeAtomicity runs the full atomicity pipeline over one (targetIndex,
// trial) grid (see confirm).
func AnalyzeAtomicity(prog Program, o Options) []AtomicityReport {
	targets := DetectTargets("atomicity", prog, o)
	out := make([]AtomicityReport, 0, len(targets))
	for i, p := range confirm(prog, targets, 0, o) {
		out = append(out, targets[i].(*atomicBlock).report(p))
	}
	return out
}
