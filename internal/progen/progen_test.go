package progen

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"racefuzzer/internal/core"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hb"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/sched"
)

// traceOf runs the program and returns its event trace as one string, plus
// the result.
func traceOf(p *Program, seed int64, pol sched.Policy, extra ...sched.Observer) (string, *sched.Result) {
	var b strings.Builder
	rec := sched.ObserverFunc(func(e event.Event) {
		b.WriteString(e.String())
		b.WriteByte('\n')
	})
	obs := append([]sched.Observer{rec}, extra...)
	res := sched.Run(p.Body(nil), sched.Config{Seed: seed, Policy: pol, Observers: obs, MaxSteps: 100_000})
	return b.String(), res
}

func policies() map[string]func() sched.Policy {
	return map[string]func() sched.Policy{
		"random":       func() sched.Policy { return sched.NewRandomPolicy() },
		"run-to-block": func() sched.Policy { return sched.NewRunToBlockPolicy(0.05) },
		"quantum":      func() sched.Policy { return sched.NewQuantumPolicy(4) },
		"sequential":   func() sched.Policy { return sched.SequentialPolicy{} },
		"rapos":        func() sched.Policy { return core.NewRAPOSPolicy() },
	}
}

// TestGeneratedProgramsAreDeterministic: the cornerstone replay property on
// 40 random programs × several policies: identical seeds give identical
// traces.
func TestGeneratedProgramsAreDeterministic(t *testing.T) {
	for gseed := int64(0); gseed < 40; gseed++ {
		p := Generate(gseed, Config{})
		for name, mk := range policies() {
			a, ra := traceOf(p, 77+gseed, mk())
			b, rb := traceOf(p, 77+gseed, mk())
			if a != b {
				t.Fatalf("gen %d policy %s: traces differ", gseed, name)
			}
			if (ra.Deadlock == nil) != (rb.Deadlock == nil) || ra.Steps != rb.Steps {
				t.Fatalf("gen %d policy %s: results differ: %+v vs %+v", gseed, name, ra, rb)
			}
		}
	}
}

// TestMutualExclusionOracle: the generator's lock-protected counter must be
// exact after every complete run, under every policy.
func TestMutualExclusionOracle(t *testing.T) {
	for gseed := int64(0); gseed < 40; gseed++ {
		p := Generate(gseed, Config{OrderedLocks: true}) // deadlock-free
		for name, mk := range policies() {
			for seed := int64(0); seed < 3; seed++ {
				var counter int
				res := sched.Run(p.Body(&counter), sched.Config{
					Seed: 1000 + seed, Policy: mk(), MaxSteps: 100_000,
				})
				if res.Deadlock != nil {
					t.Fatalf("gen %d policy %s: deadlock in an ordered-locks program: %v",
						gseed, name, res.Deadlock)
				}
				if res.Aborted {
					t.Fatalf("gen %d policy %s: aborted", gseed, name)
				}
				if counter != p.CounterIncrements {
					t.Fatalf("gen %d policy %s seed %d: counter %d, want %d",
						gseed, name, seed, counter, p.CounterIncrements)
				}
			}
		}
	}
}

// TestHBPairsSubsetOfHybridPairs: on any single trace, a pure happens-before
// race (with lock edges) is also a hybrid race — hb's ordering relation is a
// superset of hybrid's, and two accesses unordered under hb cannot hold a
// common lock. Checked on 60 random programs.
func TestHBPairsSubsetOfHybridPairs(t *testing.T) {
	checked := 0
	for gseed := int64(0); gseed < 60; gseed++ {
		p := Generate(gseed, Config{OrderedLocks: true})
		hy := hybrid.New()
		hbd := hb.New()
		_, res := traceOf(p, 500+gseed, sched.NewRandomPolicy(), hy, hbd)
		if res.Deadlock != nil || res.Aborted {
			continue
		}
		hybridPairs := make(map[event.StmtPair]bool)
		for _, q := range hy.Pairs() {
			hybridPairs[q] = true
		}
		for _, q := range hbd.Pairs() {
			checked++
			if !hybridPairs[q] {
				t.Fatalf("gen %d: hb-race %v not reported by hybrid (hybrid: %v)",
					gseed, q, hy.Pairs())
			}
		}
	}
	if checked == 0 {
		t.Fatal("no hb races observed across 60 programs — generator too tame")
	}
}

// TestHybridStrictlyMorePredictive: across the corpus, hybrid must report at
// least one pair that the SAME run's hb detector does not (the predictive
// gap that motivates phase 2).
func TestHybridStrictlyMorePredictive(t *testing.T) {
	gap := 0
	for gseed := int64(0); gseed < 60; gseed++ {
		p := Generate(gseed, Config{OrderedLocks: true})
		hy := hybrid.New()
		hbd := hb.New()
		if _, res := traceOf(p, 900+gseed, sched.NewRandomPolicy(), hy, hbd); res.Deadlock != nil {
			continue
		}
		hbPairs := make(map[event.StmtPair]bool)
		for _, q := range hbd.Pairs() {
			hbPairs[q] = true
		}
		for _, q := range hy.Pairs() {
			if !hbPairs[q] {
				gap++
			}
		}
	}
	if gap == 0 {
		t.Fatal("hybrid never predicted beyond hb across the corpus")
	}
}

// TestRaceFuzzerOnGeneratedPrograms: fuzz every potential pair of a few
// generated programs; confirmed races must carry coherent records and runs
// must terminate.
func TestRaceFuzzerOnGeneratedPrograms(t *testing.T) {
	confirmed := 0
	for gseed := int64(0); gseed < 8; gseed++ {
		p := Generate(gseed, Config{OrderedLocks: true})
		prog := func(mt *sched.Thread) { p.Body(nil)(mt) }
		opts := core.Options{Seed: 40 + gseed, Phase1Trials: 3, Phase2Trials: 12, MaxSteps: 100_000}
		rep := core.Analyze(prog, opts)
		for _, pr := range rep.Pairs {
			if pr.IsReal {
				confirmed++
				run := core.FuzzRun(prog, pr.Pair, pr.FirstRaceSeed, opts)
				if !run.RaceCreated {
					t.Fatalf("gen %d: replay of %v seed %d lost the race", gseed, pr.Pair, pr.FirstRaceSeed)
				}
				for _, rr := range run.Races {
					if !rr.Target.Contains(rr.Pair.A) || !rr.Target.Contains(rr.Pair.B) {
						t.Fatalf("incoherent race record: %+v", rr)
					}
				}
			}
		}
	}
	if confirmed == 0 {
		t.Fatal("no real races confirmed across generated corpus")
	}
}

// TestDeadlocksArePossibleWithUnorderedLocks: sanity-check that the
// generator's nested unordered acquisitions genuinely produce deadlockable
// programs, and that deadlock detection + full unwinding work at corpus scale.
func TestDeadlocksArePossibleWithUnorderedLocks(t *testing.T) {
	sawDeadlock := false
	for gseed := int64(0); gseed < 60 && !sawDeadlock; gseed++ {
		p := Generate(gseed, Config{MaxLockDepth: 2, Locks: 2, OpsPerThread: 16})
		for seed := int64(0); seed < 10 && !sawDeadlock; seed++ {
			_, res := traceOf(p, seed, sched.NewRandomPolicy())
			if res.Deadlock != nil {
				sawDeadlock = true
			}
		}
	}
	if !sawDeadlock {
		t.Fatal("no generated program deadlocked — generator lost its nesting")
	}
}

// TestNoGoroutineLeaksAtCorpusScale runs hundreds of executions (including
// deadlocking ones, which require full unwind) and checks goroutines return
// to baseline.
func TestNoGoroutineLeaksAtCorpusScale(t *testing.T) {
	before := runtime.NumGoroutine()
	for gseed := int64(0); gseed < 30; gseed++ {
		p := Generate(gseed, Config{MaxLockDepth: 2})
		for seed := int64(0); seed < 5; seed++ {
			traceOf(p, seed, sched.NewRandomPolicy())
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+3 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+3 {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, g)
	}
}

// TestGeneratorDeterminism: same seed ⇒ same program structure.
func TestGeneratorDeterminism(t *testing.T) {
	for gseed := int64(0); gseed < 20; gseed++ {
		a := Generate(gseed, Config{})
		b := Generate(gseed, Config{})
		if a.CounterIncrements != b.CounterIncrements {
			t.Fatalf("gen %d: counter plans differ", gseed)
		}
		if fmt.Sprintf("%v", a.scripts) != fmt.Sprintf("%v", b.scripts) {
			t.Fatalf("gen %d: scripts differ", gseed)
		}
	}
	if fmt.Sprintf("%v", Generate(1, Config{}).scripts) == fmt.Sprintf("%v", Generate(2, Config{}).scripts) {
		t.Fatal("different seeds generated identical programs")
	}
}

// TestScriptsAreLockBalanced: every generated script releases exactly what
// it acquires, in LIFO order.
func TestScriptsAreLockBalanced(t *testing.T) {
	for gseed := int64(0); gseed < 50; gseed++ {
		p := Generate(gseed, Config{MaxLockDepth: 3, Locks: 3})
		for ti, script := range p.scripts {
			var stack []int
			for pi, op := range script {
				switch op.kind {
				case opLock:
					stack = append(stack, op.arg)
				case opUnlock:
					if len(stack) == 0 || stack[len(stack)-1] != op.arg {
						t.Fatalf("gen %d thread %d pos %d: unbalanced unlock of %d (stack %v)",
							gseed, ti, pi, op.arg, stack)
					}
					stack = stack[:len(stack)-1]
				}
			}
			if len(stack) != 0 {
				t.Fatalf("gen %d thread %d: locks left held: %v", gseed, ti, stack)
			}
		}
	}
}
