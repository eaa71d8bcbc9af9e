package harness

import (
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

// twoCycles has two lock-order cycles. L0/L1 is a phase-1 false positive:
// thread b takes L1 then L0 only after main has joined thread a, which takes
// L0 then L1, so it can never deadlock. L2/L3 is a real ABBA that random
// scheduling deadlocks now and then even when L0/L1 is the directed target.
func twoCycles() bench.Program {
	nest := func(c *sched.Thread, outer, inner event.LockID, s event.Stmt) {
		c.LockAcquire(outer, s)
		c.Nop(s)
		c.LockAcquire(inner, s)
		c.LockRelease(inner, s)
		c.LockRelease(outer, s)
	}
	sa, sb, sc, sd := event.StmtFor("tc:a"), event.StmtFor("tc:b"), event.StmtFor("tc:c"), event.StmtFor("tc:d")
	return func(mt *sched.Thread) {
		s := mt.Scheduler()
		l0, l1, l2, l3 := s.NewLock("L0"), s.NewLock("L1"), s.NewLock("L2"), s.NewLock("L3")
		c := mt.Fork("c", func(t *sched.Thread) { nest(t, l2, l3, sc) })
		d := mt.Fork("d", func(t *sched.Thread) { nest(t, l3, l2, sd) })
		a := mt.Fork("a", func(t *sched.Thread) { nest(t, l0, l1, sa) })
		mt.Join(a)
		b := mt.Fork("b", func(t *sched.Thread) { nest(t, l1, l0, sb) })
		mt.Join(b)
		mt.Join(c)
		mt.Join(d)
	}
}

// twoCyclesCtx is a regress context that resolves "twocycles" to
// twoCycles, which is deliberately not in the benchmark registry.
func twoCyclesCtx(store *corpus.Store) *regressCtx {
	b := bench.Benchmark{Name: "twocycles", New: twoCycles}
	return &regressCtx{store: store, targets: make(map[regressKey][]core.Target),
		lookup: func(name string) (bench.Benchmark, bool) { return b, name == b.Name }}
}

// twoCyclesTarget is twoCycles' phase-1 deadlock target rendered as pair.
func twoCyclesTarget(t *testing.T, o core.Options, pair string) core.Target {
	t.Helper()
	for _, tg := range core.DetectTargets("deadlock", twoCycles(), o) {
		if tg.String() == pair {
			return tg
		}
	}
	t.Fatalf("phase 1 did not report the %s cycle", pair)
	return nil
}

// TestRegressDeadlockHitMustBlockTargetLocks checks that a deadlock finding
// regresses only when its witness seed deadlocks on the finding's own locks.
func TestRegressDeadlockHitMustBlockTargetLocks(t *testing.T) {
	opts := core.Options{Seed: 5, Phase1Trials: 6, Phase2Trials: 20, Label: "twocycles"}

	t.Run("real finding", func(t *testing.T) {
		store, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Corpus, o.TraceDir = store, store.WitnessDir()
		core.AnalyzeDeadlocks(twoCycles(), o)
		findings := store.Findings()
		if len(findings) != 1 || findings[0].Pair != "(L2, L3)" || findings[0].WitnessTrace == "" {
			t.Fatalf("findings = %+v, want one witnessed (L2, L3) deadlock", findings)
		}
		if res := twoCyclesCtx(store).one(findings[0]); !res.OK() {
			t.Fatalf("real finding did not regress: %s", res)
		}

		// The witness byte-compare is part of the verdict: a stored witness
		// from another seed must fail it.
		tg := twoCyclesTarget(t, opts, "(L2, L3)")
		_, _, other := core.Record(twoCycles(), tg, findings[0].WitnessSeed+1, opts)
		if err := other.SaveFile(store.WitnessPath(findings[0])); err != nil {
			t.Fatal(err)
		}
		if res := twoCyclesCtx(store).one(findings[0]); res.Status != RegressDiverged {
			t.Fatalf("swapped witness: status = %s, want %s", res, RegressDiverged)
		}
	})

	t.Run("deadlock on other locks", func(t *testing.T) {
		target := twoCyclesTarget(t, opts, "(L0, L1)")
		seed := int64(-1)
		for s := int64(0); s < 500 && seed < 0; s++ {
			res, hits, _ := core.Record(twoCycles(), target, s, opts)
			if hits > 0 {
				t.Fatalf("seed %d confirmed the infeasible (L0, L1) cycle", s)
			}
			if res.Deadlock != nil {
				seed = s
			}
		}
		if seed < 0 {
			t.Fatal("no seed deadlocked on L2/L3")
		}
		f := corpus.Finding{
			Sig:   corpus.MakeSignature("deadlock", "tc:a", "tc:b", "deadlock"),
			Bench: "twocycles", Pair: target.String(), FirstSeenSeed: opts.Seed,
			Phase1Trials: opts.Phase1Trials, WitnessSeed: seed,
		}
		if res := twoCyclesCtx(corpus.NewStore()).one(f); res.Status != RegressNotReproduced {
			t.Fatalf("status = %s, want %s", res, RegressNotReproduced)
		}
	})
}
