package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"racefuzzer/internal/atomizer"
	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/deadlock"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
)

// The traced run re-drives the three pipelines trial by trial through public
// calls — sched.Run with the pipeline's own policy, detector and seed
// derivation — so that every layer can be timed at its seam from outside the
// program. The untraced run calls core.Analyze, AnalyzeDeadlocks and
// AnalyzeAtomicity directly; the verdict digests of the two must be equal,
// which is what catches any drift between this file and internal/core.

// pairSeed is core's phase-2 seed derivation for trial i of target index pi.
// The deadlock and atomicity pipelines offset the target index by these
// constants so their streams never meet the race pipeline's.
func pairSeed(base int64, pi, i int) int64 {
	return base + int64(pi)*1_000_003 + int64(i)*7_919 + 1
}

const (
	deadlockSeedOffset  = 7_000_000
	atomicitySeedOffset = 9_000_000
)

// ordered runs task(0..n-1) on max(width, 1) goroutines — each task is
// dispatched only when a goroutine frees up — and calls consume(i, r) in
// increasing i on the caller's goroutine, the way core's campaign executor
// merges trials. task receives the index of the goroutine running it.
func ordered[T any](width, n int, task func(lane, i int) T, consume func(i int, r T)) {
	if width <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			consume(i, task(0, i))
		}
		return
	}
	if width > n {
		width = n
	}
	results := make([]T, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for lane := 0; lane < width; lane++ {
		go func(lane int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				results[i] = task(lane, i)
				close(ready[i])
			}
		}(lane)
	}
	for i := 0; i < n; i++ {
		<-ready[i]
		consume(i, results[i])
		var zero T
		results[i] = zero
	}
	wg.Wait()
}

// timedPolicy sums the wall time of the wrapped policy's Step calls. One
// instance serves one execution; the scheduler serializes Step calls.
type timedPolicy struct {
	sched.Policy
	ns, calls int64
}

func (p *timedPolicy) Step(v *sched.View, r *rng.Rand) sched.Decision {
	start := time.Now()
	d := p.Policy.Step(v, r)
	p.ns += time.Since(start).Nanoseconds()
	p.calls++
	return d
}

// timedObserver sums the wall time of the wrapped detector's OnEvent calls.
type timedObserver struct {
	o         sched.Observer
	ns, calls int64
}

func (t *timedObserver) OnEvent(e event.Event) {
	start := time.Now()
	t.o.OnEvent(e)
	t.ns += time.Since(start).Nanoseconds()
	t.calls++
}

// trialOut is one traced execution: its result and the time each layer spent
// on it.
type trialOut struct {
	lane    int
	startNs int64 // since the ledger's epoch
	runNs   int64 // the sched.Run call
	res     *sched.Result
	pol     *timedPolicy
	obs     *timedObserver // nil without a detector
	// queryNs is the detector's post-run query (Pairs, Cycles, Candidates).
	queryNs int64
}

// run executes one trial with the policy and detector timed and a schedprof
// trial attached.
func (l *ledger) run(lane int, prog core.Program, seed int64, maxSteps int, pol sched.Policy, det sched.Observer) trialOut {
	out := trialOut{lane: lane, pol: &timedPolicy{Policy: pol}}
	cfg := sched.Config{Seed: seed, Policy: out.pol, MaxSteps: maxSteps}
	if det != nil {
		out.obs = &timedObserver{o: det}
		cfg.Observers = []sched.Observer{out.obs}
	}
	cfg.Prof = l.prof.StartTrial("", seed)
	start := time.Now()
	out.res = sched.Run(prog, cfg)
	out.runNs = time.Since(start).Nanoseconds()
	out.startNs = start.Sub(l.epoch).Nanoseconds()
	l.prof.FinishTrial(cfg.Prof)
	return out
}

// tracePhase1 runs the o.Phase1Trials random-scheduler observations of one
// detector and hands each run's findings to collect in trial order. newDet
// returns the detector and its post-run query.
func tracePhase1[T any](l *ledger, det string, prog core.Program, o core.Options, newDet func() (sched.Observer, func() T), collect func(T)) {
	type obsRun struct {
		trialOut
		found T
	}
	ordered(o.Workers, phase1Count(o),
		func(lane, i int) obsRun {
			d, query := newDet()
			out := l.run(lane, prog, o.Seed+int64(i), o.MaxSteps, sched.NewRandomPolicy(), d)
			start := time.Now()
			found := query()
			out.queryNs = time.Since(start).Nanoseconds()
			return obsRun{out, found}
		},
		func(i int, r obsRun) {
			l.foldDetector(det, r.trialOut)
			collect(r.found)
		})
}

// tracedPotential is core.DetectPotentialRaces, trial by trial.
func (l *ledger) tracedPotential(prog core.Program, o core.Options) []event.StmtPair {
	union := map[event.StmtPair]bool{}
	tracePhase1(l, "hybrid", prog, o,
		func() (sched.Observer, func() []event.StmtPair) { d := hybrid.New(); return d, d.Pairs },
		func(pairs []event.StmtPair) {
			for _, p := range pairs {
				union[p] = true
			}
		})
	pot := make([]event.StmtPair, 0, len(union))
	for p := range union {
		pot = append(pot, p)
	}
	event.SortStmtPairs(pot)
	l.potential += len(pot)
	return pot
}

// tracedRaces is core.Analyze, trial by trial.
func (l *ledger) tracedRaces(prog core.Program, o core.Options) ([]event.StmtPair, []pairVerdict) {
	pot := l.tracedPotential(prog, o)
	trials := o.Phase2Trials
	out := make([]pairVerdict, len(pot))
	for pi, p := range pot {
		out[pi] = pairVerdict{pair: p, first: -1}
	}
	type raceRun struct {
		trialOut
		pol *core.RaceFuzzerPolicy
	}
	ordered(o.Workers, len(pot)*trials,
		func(lane, k int) raceRun {
			pi, i := k/trials, k%trials
			pol := core.NewRaceFuzzerPolicy(pot[pi])
			return raceRun{l.run(lane, prog, pairSeed(o.Seed, pi, i), o.MaxSteps, pol, nil), pol}
		},
		func(k int, r raceRun) {
			v := &out[k/trials]
			v.steps += int64(r.res.Steps)
			if r.pol.RaceCreated() {
				v.runs++
				if v.first < 0 {
					v.first = k % trials
				}
				if len(r.res.Exceptions) > 0 {
					v.exc++
				}
			}
			l.foldRace(r.trialOut, r.pol)
		})
	l.confirmed += realCount(out)
	return pot, out
}

// tracedDeadlocks is core.AnalyzeDeadlocks, trial by trial.
func (l *ledger) tracedDeadlocks(prog core.Program, o core.Options) []hitVerdict {
	var cycles []deadlock.Cycle
	seen := map[[2]event.LockID]bool{}
	tracePhase1(l, "deadlock", prog, o,
		func() (sched.Observer, func() []deadlock.Cycle) { d := deadlock.New(); return d, d.Cycles },
		func(found []deadlock.Cycle) {
			for _, c := range found {
				if !seen[c.Locks] {
					seen[c.Locks] = true
					cycles = append(cycles, c)
				}
			}
		})
	out := make([]hitVerdict, len(cycles))
	for ci, c := range cycles {
		out[ci] = hitVerdict{target: cycleName(c.Locks), first: -1}
	}
	l.confirm("deadlock", len(cycles), o, out, func(lane, ci, i int) (trialOut, bool) {
		target := cycles[ci].Locks
		pol := core.NewDeadlockDirectedPolicy()
		pol.TargetLocks = &target
		r := l.run(lane, prog, pairSeed(o.Seed, ci+deadlockSeedOffset, i), o.MaxSteps, pol, nil)
		return r, r.res.Deadlock != nil && deadlockInvolves(r.res.Deadlock, target)
	})
	return out
}

// deadlockInvolves mirrors core's check that a deadlock blocks a thread on
// one of the target cycle's locks.
func deadlockInvolves(d *sched.DeadlockInfo, target [2]event.LockID) bool {
	for _, b := range d.Blocked {
		if b.Lock == target[0] || b.Lock == target[1] {
			return true
		}
	}
	return false
}

// tracedAtomicity is core.AnalyzeAtomicity, trial by trial.
func (l *ledger) tracedAtomicity(prog core.Program, o core.Options) []hitVerdict {
	var targets []core.AtomicityTarget
	seen := map[[2]event.Stmt]bool{}
	tracePhase1(l, "atomizer", prog, o,
		func() (sched.Observer, func() []atomizer.Candidate) { d := atomizer.New(); return d, d.Candidates },
		func(found []atomizer.Candidate) {
			for _, c := range found {
				if k := [2]event.Stmt{c.First, c.Second}; !seen[k] {
					seen[k] = true
					targets = append(targets, core.AtomicityTarget{First: c.First, Second: c.Second, Interferers: c.Interferers})
				}
			}
		})
	out := make([]hitVerdict, len(targets))
	for ti, t := range targets {
		out[ti] = hitVerdict{target: blockName(t), first: -1}
	}
	l.confirm("atomicity", len(targets), o, out, func(lane, ti, i int) (trialOut, bool) {
		pol := core.NewAtomicityDirectedPolicy(targets[ti])
		r := l.run(lane, prog, pairSeed(o.Seed, ti+atomicitySeedOffset, i), o.MaxSteps, pol, nil)
		return r, len(pol.Violations()) > 0
	})
	return out
}

// confirm runs the (target, trial) grid of a deadlock or atomicity phase 2
// and folds hits into out in trial order. Like core, only the atomicity
// pipeline counts hitting trials that threw.
func (l *ledger) confirm(kind string, targets int, o core.Options, out []hitVerdict, trial func(lane, target, i int) (trialOut, bool)) {
	trials := o.Phase2Trials
	type hitRun struct {
		trialOut
		hit bool
	}
	var targetNs int64
	ordered(o.Workers, targets*trials,
		func(lane, k int) hitRun {
			r, hit := trial(lane, k/trials, k%trials)
			return hitRun{r, hit}
		},
		func(k int, r hitRun) {
			v := &out[k/trials]
			if r.hit {
				v.runs++
				if v.first < 0 {
					v.first = k % trials
				}
				if kind == "atomicity" && len(r.res.Exceptions) > 0 {
					v.exc++
				}
			}
			l.foldTrial(kind, r.trialOut)
			targetNs += r.runNs
			if k%trials == trials-1 {
				l.confirmMs[kind] = append(l.confirmMs[kind], float64(targetNs)/1e6)
				targetNs = 0
			}
		})
}

// overheadRuns is how many moldyn executions each overhead column times.
const overheadRuns = 200

// probeOverhead measures Table 1's runtime columns 3–5 on moldyn at width 1:
// a plain random-scheduler run, the same with the hybrid detector attached,
// and a RaceFuzzer run on the model's epot pair. Each is the median of
// overheadRuns executions, interleaved so drift hits all three alike.
func probeOverhead(l *ledger, seed int64) {
	pair := event.MakeStmtPair(bench.MoldynEpotStmt, bench.MoldynEpotStmt)
	var normal, hyb, rf []float64
	timeRun := func(run func()) float64 {
		start := time.Now()
		run()
		return float64(time.Since(start).Nanoseconds()) / 1e3
	}
	for i := 0; i < overheadRuns; i++ {
		s := seed + int64(i)
		normal = append(normal, timeRun(func() {
			sched.Run(bench.Moldyn(3, 9, 2), sched.Config{Seed: s, Policy: sched.NewRandomPolicy()})
		}))
		hyb = append(hyb, timeRun(func() {
			sched.Run(bench.Moldyn(3, 9, 2), sched.Config{Seed: s, Policy: sched.NewRandomPolicy(),
				Observers: []sched.Observer{hybrid.New()}})
		}))
		rf = append(rf, timeRun(func() { core.FuzzRun(bench.Moldyn(3, 9, 2), pair, s, core.Options{}) }))
	}
	l.values["overhead.normal_us"] = median(normal)
	l.values["overhead.hybrid_us"] = median(hyb)
	l.values["overhead.racefuzzer_us"] = median(rf)
	l.values["overhead.hybrid_x"] = median(hyb) / median(normal)
	l.values["overhead.racefuzzer_x"] = median(rf) / median(normal)
}

// phase1Count applies core's default to the phase-1 trial count, which a
// registry model may leave at 0. Every workload sets Phase2Trials.
func phase1Count(o core.Options) int {
	if o.Phase1Trials <= 0 {
		return 3
	}
	return o.Phase1Trials
}

func cycleName(locks [2]event.LockID) string { return fmt.Sprintf("%s/%s", locks[0], locks[1]) }

func blockName(t core.AtomicityTarget) string { return fmt.Sprintf("%s..%s", t.First, t.Second) }
