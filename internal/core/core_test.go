package core

import (
	"errors"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

func containsPair(ps []event.StmtPair, p event.StmtPair) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

func TestFigure1Phase1FindsBothPairs(t *testing.T) {
	pairs := DetectPotentialRaces(bench.Figure1(), Options{Seed: 1, Phase1Trials: 8})
	if !containsPair(pairs, bench.Fig1PairZ) {
		t.Fatalf("hybrid missed the real z race; pairs = %v", pairs)
	}
	if !containsPair(pairs, bench.Fig1PairX) {
		t.Fatalf("hybrid missed the x false alarm; pairs = %v", pairs)
	}
}

func TestFigure1RaceFuzzerConfirmsOnlyZ(t *testing.T) {
	o := Options{Seed: 7, Phase2Trials: 60}
	zRep := FuzzPair(bench.Figure1(), bench.Fig1PairZ, 0, o)
	if !zRep.IsReal {
		t.Fatalf("z pair not confirmed: %v", zRep)
	}
	if zRep.Probability < 0.95 {
		t.Fatalf("z race probability %.2f, want ~1.0 (paper §3.1 Case 2)", zRep.Probability)
	}
	// Resolving the race randomly must reach ERROR1 about half the time.
	frac := float64(zRep.ExceptionRuns) / float64(zRep.Trials)
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("ERROR1 fraction %.2f, want ≈0.5", frac)
	}

	xRep := FuzzPair(bench.Figure1(), bench.Fig1PairX, 1, o)
	if xRep.IsReal {
		t.Fatalf("x pair (false alarm) wrongly confirmed: %v (paper §3.1 Case 1)", xRep)
	}
	if xRep.ExceptionRuns != 0 {
		t.Fatalf("false alarm produced exceptions: %v", xRep)
	}
}

func TestFigure1Error2Unreachable(t *testing.T) {
	// Across both targets and many seeds, ERROR2 must never fire: the x
	// accesses are implicitly synchronized by y (paper §3.1).
	for _, pair := range []event.StmtPair{bench.Fig1PairZ, bench.Fig1PairX} {
		for i := 0; i < 80; i++ {
			run := FuzzRun(bench.Figure1(), pair, int64(1000+i), Options{})
			for _, ex := range run.Result.Exceptions {
				if errors.Is(ex.Err, bench.ErrError2) {
					t.Fatalf("ERROR2 reached with pair %v seed %d", pair, 1000+i)
				}
			}
		}
	}
}

func TestFigure2RaceFuzzerHitsWithProbabilityOne(t *testing.T) {
	for _, n := range []int{5, 50, 200} {
		rep := FuzzPair(bench.Figure2(n), bench.Fig2Pair, 0, Options{Seed: 11, Phase2Trials: 40})
		if rep.Probability < 0.999 {
			t.Fatalf("prefix %d: RaceFuzzer probability %.2f, want 1.0 (§3.2)", n, rep.Probability)
		}
		frac := float64(rep.ExceptionRuns) / float64(rep.Trials)
		if frac < 0.25 || frac > 0.75 {
			t.Fatalf("prefix %d: ERROR fraction %.2f, want ≈0.5", n, frac)
		}
	}
}

func TestFigure2SimpleRandomDecaysWithPrefix(t *testing.T) {
	trials := 150
	pShort := BaselineProbability(bench.Figure2(2), bench.Fig2Pair,
		func() sched.Policy { return sched.NewRandomPolicy() }, trials, 5, 0)
	pLong := BaselineProbability(bench.Figure2(120), bench.Fig2Pair,
		func() sched.Policy { return sched.NewRandomPolicy() }, trials, 5, 0)
	if pLong > 0.2 {
		t.Fatalf("simple random hit prob %.2f with long prefix, want near 0", pLong)
	}
	if pShort <= pLong {
		t.Fatalf("probability did not decay: short=%.2f long=%.2f", pShort, pLong)
	}
}

func TestFigure2ReplayIsExact(t *testing.T) {
	// Find a seed that throws, then replay it: the replay must throw the
	// same exception at the same step — the paper's deterministic replay.
	o := Options{}
	var seed int64 = -1
	for i := int64(0); i < 50; i++ {
		run := FuzzRun(bench.Figure2(30), bench.Fig2Pair, 900+i, o)
		if len(run.Result.Exceptions) > 0 {
			seed = 900 + i
			break
		}
	}
	if seed < 0 {
		t.Fatal("no throwing seed found in 50 tries")
	}
	a := FuzzRun(bench.Figure2(30), bench.Fig2Pair, seed, o)
	b := FuzzRun(bench.Figure2(30), bench.Fig2Pair, seed, o)
	if len(a.Result.Exceptions) != 1 || len(b.Result.Exceptions) != 1 {
		t.Fatalf("replays differ in exceptions: %v vs %v", a.Result.Exceptions, b.Result.Exceptions)
	}
	if a.Result.Exceptions[0].Step != b.Result.Exceptions[0].Step {
		t.Fatalf("replay diverged: steps %d vs %d", a.Result.Exceptions[0].Step, b.Result.Exceptions[0].Step)
	}
	if a.Result.Steps != b.Result.Steps {
		t.Fatalf("replay diverged: total steps %d vs %d", a.Result.Steps, b.Result.Steps)
	}
	if len(a.Races) != len(b.Races) || a.Races[0].Step != b.Races[0].Step {
		t.Fatalf("replay diverged in races: %v vs %v", a.Races, b.Races)
	}
}

func TestAnalyzeEndToEndFigure1(t *testing.T) {
	rep := Analyze(bench.Figure1(), Options{Seed: 3, Phase1Trials: 8, Phase2Trials: 40})
	if len(rep.Potential) < 2 {
		t.Fatalf("potential = %v, want ≥2", rep.Potential)
	}
	if rep.RealCount() != 1 {
		t.Fatalf("real count = %d, want 1; pairs: %v", rep.RealCount(), rep.Pairs)
	}
	if rep.ExceptionPairCount() != 1 {
		t.Fatalf("exception pairs = %d, want 1", rep.ExceptionPairCount())
	}
	if rep.MeanProbability() < 0.9 {
		t.Fatalf("mean probability = %.2f, want ≈1", rep.MeanProbability())
	}
}

func TestRaceFuzzerPolicyReportsResolutionBothWays(t *testing.T) {
	sawCandFirst, sawPostFirst := false, false
	for i := int64(0); i < 40 && !(sawCandFirst && sawPostFirst); i++ {
		run := FuzzRun(bench.Figure2(10), bench.Fig2Pair, 300+i, Options{})
		for _, rr := range run.Races {
			if rr.CandidateFirst {
				sawCandFirst = true
			} else {
				sawPostFirst = true
			}
			if rr.Loc == event.NoLoc || rr.LocName == "" {
				t.Fatalf("race record missing location: %+v", rr)
			}
			if !rr.Target.Contains(rr.Pair.A) || !rr.Target.Contains(rr.Pair.B) {
				t.Fatalf("raced pair %v outside target %v", rr.Pair, rr.Target)
			}
		}
	}
	if !sawCandFirst || !sawPostFirst {
		t.Fatalf("random resolution did not explore both orders (cand=%v post=%v)", sawCandFirst, sawPostFirst)
	}
}

func TestPostponedSetDeadlockBreaking(t *testing.T) {
	// Target a pair whose statements never conflict (different locations):
	// both threads get postponed, and line 26 must release them so the run
	// terminates without deadlock.
	a := event.StmtFor("indep:a")
	b := event.StmtFor("indep:b")
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		la := s.NewLoc("va")
		lb := s.NewLoc("vb")
		t1 := mt.Fork("t1", func(c *sched.Thread) { c.MemWrite(la, a) })
		t2 := mt.Fork("t2", func(c *sched.Thread) { c.MemWrite(lb, b) })
		mt.Join(t1)
		mt.Join(t2)
	}
	for i := int64(0); i < 20; i++ {
		run := FuzzRun(prog, event.MakeStmtPair(a, b), 40+i, Options{})
		if run.RaceCreated {
			t.Fatalf("seed %d: race wrongly created on disjoint locations", 40+i)
		}
		if run.Result.Deadlock != nil || run.Result.Aborted {
			t.Fatalf("seed %d: run did not terminate cleanly: %+v", 40+i, run.Result)
		}
	}
}

func TestMultipleReadersInR(t *testing.T) {
	// One writer, several readers of the same location: all readers park in
	// postponed; the writer's arrival races with every one of them, and the
	// postponed-first resolution grants all of R (the readers don't mutually
	// race — Algorithm 1's multi-element R case).
	w := event.StmtFor("multi:w")
	r := event.StmtFor("multi:r")
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		loc := s.NewLoc("shared")
		kids := []*sched.Thread{}
		for i := 0; i < 3; i++ {
			kids = append(kids, mt.Fork("reader", func(c *sched.Thread) { c.MemRead(loc, r) }))
		}
		kids = append(kids, mt.Fork("writer", func(c *sched.Thread) { c.MemWrite(loc, w) }))
		for _, k := range kids {
			mt.Join(k)
		}
	}
	sawMulti := false
	for i := int64(0); i < 60 && !sawMulti; i++ {
		run := FuzzRun(prog, event.MakeStmtPair(w, r), 70+i, Options{})
		for _, rr := range run.Races {
			if len(rr.Postponed) >= 2 {
				sawMulti = true
			}
		}
		if run.Result.Deadlock != nil {
			t.Fatalf("seed %d: deadlock", 70+i)
		}
	}
	if !sawMulti {
		t.Fatal("never observed |R| ≥ 2 with three parked readers")
	}
}

func TestWitnessPolicyDetectsObviousRace(t *testing.T) {
	a := event.StmtFor("obvious:a")
	b := event.StmtFor("obvious:b")
	prog := func(mt *sched.Thread) {
		loc := mt.Scheduler().NewLoc("x")
		t1 := mt.Fork("t1", func(c *sched.Thread) { c.MemWrite(loc, a) })
		t2 := mt.Fork("t2", func(c *sched.Thread) { c.MemWrite(loc, b) })
		mt.Join(t1)
		mt.Join(t2)
	}
	// Even this trivial race is only co-pending when neither write fires
	// before the other thread parks at its own write — the random scheduler
	// often runs t1 to completion before t2 even starts. Empirically ≈0.4;
	// assert it is clearly nonzero (and contrast: RaceFuzzer would hit 1.0).
	p := BaselineProbability(prog, event.MakeStmtPair(a, b),
		func() sched.Policy { return sched.NewRandomPolicy() }, 100, 9, 0)
	if p < 0.2 {
		t.Fatalf("witness probability %.2f on trivially adjacent race, want ≳0.4", p)
	}
	rf := FuzzPair(prog, event.MakeStmtPair(a, b), 0, Options{Seed: 9, Phase2Trials: 50})
	if rf.Probability < 0.999 {
		t.Fatalf("RaceFuzzer probability %.2f on trivial race, want 1.0", rf.Probability)
	}
}

func TestLivelockMonitorReleasesAgedThreads(t *testing.T) {
	// Thread A parks forever at a target statement nobody else reaches,
	// while thread B spins. Without the livelock monitor, A would stay
	// postponed until B finishes; with a small MaxPostponeAge, A is released
	// early. Either way the run must terminate; we assert the aging counter
	// fires with a tiny bound.
	target := event.StmtFor("live:target")
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		loc := s.NewLoc("x")
		lspin := s.NewLoc("spin")
		a := mt.Fork("a", func(c *sched.Thread) { c.MemWrite(loc, target) })
		b := mt.Fork("b", func(c *sched.Thread) {
			for i := 0; i < 300; i++ {
				c.MemWrite(lspin, event.StmtFor("live:spin"))
			}
		})
		mt.Join(a)
		mt.Join(b)
	}
	pol := &RaceFuzzerPolicy{Target: event.MakeStmtPair(target, target), MaxPostponeAge: 20}
	res := sched.Run(prog, sched.Config{Seed: 4, Policy: pol})
	if res.Deadlock != nil || res.Aborted {
		t.Fatalf("run did not terminate: %+v", res)
	}
	_, aged := pol.Stats()
	if aged == 0 {
		t.Fatal("livelock monitor never released the postponed thread")
	}
}
