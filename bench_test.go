// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family per table/figure (see DESIGN.md's experiment index):
//
//   - BenchmarkTable1/<row>      — the per-benchmark pipeline behind Table 1;
//     custom metrics report the measured columns (potential, real,
//     exception pairs, hit probability).
//   - BenchmarkOverheadNormal / Hybrid / RaceFuzzer — Table 1's three
//     runtime columns: the same workload under plain random scheduling,
//     with hybrid detection attached, and under RaceFuzzer.
//   - BenchmarkFigure1           — §3.1's example, race + coin-flip errors.
//   - BenchmarkFigure2/prefix=N  — §3.2's sweep: RaceFuzzer hit rate (≈1,
//     independent of N) vs BenchmarkFigure2Baseline (decays with N).
//   - BenchmarkAblation*         — the design-choice ablations DESIGN.md
//     calls out (resolution randomness, livelock monitor).
//   - BenchmarkScheduler / Hybrid / VClock — substrate micro-benchmarks.
//
// Absolute times are machine-local; the paper-comparable signals are the
// custom metrics and the ratios between the overhead benchmarks.
package racefuzzer_test

import (
	"fmt"
	"testing"

	"racefuzzer"
	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/lockset"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/vclock"
)

// BenchmarkTable1 runs the full two-phase pipeline per Table-1 row.
func BenchmarkTable1(b *testing.B) {
	for _, bm := range bench.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			var potential, real, excPairs int
			var prob float64
			for i := 0; i < b.N; i++ {
				rep := core.Analyze(bm.New(), core.Options{
					Seed:         int64(12345 + i),
					Phase1Trials: bm.Phase1Trials,
					Phase2Trials: 20,
					MaxSteps:     bm.MaxSteps,
				})
				potential = len(rep.Potential)
				real = rep.RealCount()
				excPairs = rep.ExceptionPairCount()
				prob = rep.MeanProbability()
			}
			b.ReportMetric(float64(potential), "potential-races")
			b.ReportMetric(float64(real), "real-races")
			b.ReportMetric(float64(excPairs), "exception-pairs")
			b.ReportMetric(prob, "hit-probability")
		})
	}
}

// overheadProgram is the compute-heavy row used for the runtime columns.
func overheadProgram() racefuzzer.Program { return bench.Moldyn(3, 9, 2) }

// BenchmarkOverheadNormal is Table 1 column 3: plain execution.
func BenchmarkOverheadNormal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched.Run(overheadProgram(), sched.Config{Seed: int64(i), Policy: sched.NewRandomPolicy()})
	}
}

// BenchmarkOverheadHybrid is Table 1 column 4: hybrid detection attached
// (tracks every shared access — the expensive configuration).
func BenchmarkOverheadHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched.Run(overheadProgram(), sched.Config{
			Seed: int64(i), Policy: sched.NewRandomPolicy(),
			Observers: []sched.Observer{hybrid.New()},
		})
	}
}

// BenchmarkOverheadRaceFuzzer is Table 1 column 5: RaceFuzzer tracks only
// synchronization and the single racing pair.
func BenchmarkOverheadRaceFuzzer(b *testing.B) {
	pair := event.MakeStmtPair(bench.MoldynEpotStmt, bench.MoldynEpotStmt)
	for i := 0; i < b.N; i++ {
		core.FuzzRun(overheadProgram(), pair, int64(i), core.Options{})
	}
}

// BenchmarkFigure1 fuzzes the Figure-1 z-pair and reports how often the race
// is created and how often ERROR1 fires (paper: 1.0 and ≈0.5).
func BenchmarkFigure1(b *testing.B) {
	races, errors := 0, 0
	for i := 0; i < b.N; i++ {
		run := core.FuzzRun(bench.Figure1(), bench.Fig1PairZ, int64(i), core.Options{})
		if run.RaceCreated {
			races++
		}
		if len(run.Result.Exceptions) > 0 {
			errors++
		}
	}
	b.ReportMetric(float64(races)/float64(b.N), "race-rate")
	b.ReportMetric(float64(errors)/float64(b.N), "error-rate")
}

// BenchmarkFigure2 is the §3.2 sweep under RaceFuzzer: the race-rate metric
// stays at 1.0 for every prefix length.
func BenchmarkFigure2(b *testing.B) {
	for _, n := range []int{5, 25, 100, 500} {
		n := n
		b.Run(fmt.Sprintf("prefix=%d", n), func(b *testing.B) {
			races, errors := 0, 0
			for i := 0; i < b.N; i++ {
				run := core.FuzzRun(bench.Figure2(n), bench.Fig2Pair, int64(i), core.Options{})
				if run.RaceCreated {
					races++
				}
				if len(run.Result.Exceptions) > 0 {
					errors++
				}
			}
			b.ReportMetric(float64(races)/float64(b.N), "race-rate")
			b.ReportMetric(float64(errors)/float64(b.N), "error-rate")
		})
	}
}

// BenchmarkFigure2Baseline is the same sweep under the simple random
// scheduler: the race-rate metric decays toward 0 as the prefix grows.
func BenchmarkFigure2Baseline(b *testing.B) {
	for _, n := range []int{5, 25, 100, 500} {
		n := n
		b.Run(fmt.Sprintf("prefix=%d", n), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				w := core.NewRaceWitnessPolicy(sched.NewRandomPolicy(), bench.Fig2Pair)
				sched.Run(bench.Figure2(n), sched.Config{Seed: int64(i), Policy: w})
				if w.Hit() {
					hits++
				}
			}
			b.ReportMetric(float64(hits)/float64(b.N), "race-rate")
		})
	}
}

// BenchmarkAblationResolution compares the paper's random race resolution
// against fixed orders (DESIGN.md ablation 3): fixing the order loses
// roughly half the reachable outcomes, visible in the error-rate metric.
func BenchmarkAblationResolution(b *testing.B) {
	modes := []struct {
		name string
		mode core.ResolutionMode
	}{
		{"random", core.ResolveRandom},
		{"candidate-first", core.ResolveCandidateFirst},
		{"postponed-first", core.ResolvePostponedFirst},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			races, errors := 0, 0
			for i := 0; i < b.N; i++ {
				pol := core.NewRaceFuzzerPolicy(bench.Fig2Pair)
				pol.Resolution = m.mode
				res := sched.Run(bench.Figure2(25), sched.Config{Seed: int64(i), Policy: pol})
				if pol.RaceCreated() {
					races++
				}
				if len(res.Exceptions) > 0 {
					errors++
				}
			}
			b.ReportMetric(float64(races)/float64(b.N), "race-rate")
			b.ReportMetric(float64(errors)/float64(b.N), "error-rate")
		})
	}
}

// BenchmarkAblationLivelockMonitor measures §4's livelock relief with the
// exact moldyn-style pathology the paper describes: one thread is postponed
// at a target statement that never finds a partner, while another spins
// waiting for the postponed thread's result without synchronizing. With the
// livelock monitor, the postponed thread is released after its age bound
// and the program finishes in a few hundred steps; without it, the spinner
// keeps the enabled set non-empty forever — the line-26 rule never fires —
// and the run burns the whole step budget (the aborted-rate metric).
func BenchmarkAblationLivelockMonitor(b *testing.B) {
	target := event.StmtFor("ablation:target")
	const budget = 20_000
	prog := func() racefuzzer.Program {
		return func(mt *racefuzzer.Thread) {
			s := mt.Scheduler()
			loc := s.NewLoc("x")
			spinLoc := s.NewLoc("spin")
			done := false
			a := mt.Fork("a", func(c *racefuzzer.Thread) {
				c.MemWrite(loc, target)
				done = true
			})
			sp := mt.Fork("spin", func(c *racefuzzer.Thread) {
				for !done { // unsynchronized spin on a's progress (fair-scheduler assumption, §4)
					c.MemWrite(spinLoc, event.StmtFor("ablation:spin"))
				}
			})
			mt.Join(a)
			mt.Join(sp)
		}
	}
	for _, cfg := range []struct {
		name string
		age  int
	}{{"monitor-on", 100}, {"monitor-off", -1}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			totalSteps, aborted := 0, 0
			for i := 0; i < b.N; i++ {
				pol := core.NewRaceFuzzerPolicy(event.MakeStmtPair(target, target))
				pol.MaxPostponeAge = cfg.age
				res := sched.Run(prog(), sched.Config{Seed: int64(i), Policy: pol, MaxSteps: budget})
				totalSteps += res.Steps
				if res.Aborted {
					aborted++
				}
			}
			b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/run")
			b.ReportMetric(float64(aborted)/float64(b.N), "aborted-rate")
		})
	}
}

// BenchmarkScheduler measures raw substrate throughput (steps/second) on a
// lock-ping workload.
func BenchmarkScheduler(b *testing.B) {
	steps := 0
	for i := 0; i < b.N; i++ {
		res := sched.Run(func(mt *racefuzzer.Thread) {
			s := mt.Scheduler()
			lk := s.NewLock("L")
			loc := s.NewLoc("x")
			kids := []*racefuzzer.Thread{}
			for w := 0; w < 4; w++ {
				kids = append(kids, mt.Fork("w", func(c *racefuzzer.Thread) {
					for j := 0; j < 50; j++ {
						c.LockAcquire(lk, event.StmtFor("bs:acq"))
						c.MemWrite(loc, event.StmtFor("bs:w"))
						c.LockRelease(lk, event.StmtFor("bs:rel"))
					}
				}))
			}
			for _, k := range kids {
				mt.Join(k)
			}
		}, sched.Config{Seed: int64(i)})
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/run")
}

// BenchmarkHybridDetector measures the phase-1 detector on a synthetic
// event stream of 1000 events per op, drawing the detector from New and
// handing it back with Release as the pipeline does.
func BenchmarkHybridDetector(b *testing.B) {
	evs := make([]event.Event, 0, 1000)
	for i := 0; i < 1000; i++ {
		evs = append(evs, event.Event{
			Kind: event.KindMem, Thread: event.ThreadID(i % 4),
			Stmt: event.StmtFor(fmt.Sprintf("bh:s%d", i%16)),
			Loc:  event.MemLoc(i % 32), Access: event.AccessKind(i % 2),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := hybrid.New()
		for _, e := range evs {
			d.OnEvent(e)
		}
		d.Release()
	}
}

// BenchmarkVClock measures the vector-clock message path: copy a sender's
// clock, join it into a receiver's, tick.
func BenchmarkVClock(b *testing.B) {
	a := vclock.New()
	c := vclock.New()
	for i := 0; i < 16; i++ {
		for j := 0; j < i; j++ {
			a.Tick(event.ThreadID(i))
			c.Tick(event.ThreadID(15 - i))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := a.Copy()
		x.Join(c)
		x.Tick(0)
	}
}

// BenchmarkLockset measures the disjointness test on small sets.
func BenchmarkLockset(b *testing.B) {
	s1 := lockset.Of(1, 3, 5, 7)
	s2 := lockset.Of(2, 4, 6, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s1.Disjoint(s2)
	}
}

// BenchmarkDeadlockPipeline measures the deadlock instantiation of active
// testing (predict lock-order cycles, confirm by directed scheduling) on the
// classic bank-transfer ABBA model.
func BenchmarkDeadlockPipeline(b *testing.B) {
	prog := func() racefuzzer.Program {
		return func(mt *racefuzzer.Thread) {
			s := mt.Scheduler()
			l1 := s.NewLock("A")
			l2 := s.NewLock("B")
			t1 := mt.Fork("t1", func(c *racefuzzer.Thread) {
				c.LockAcquire(l1, event.StmtFor("bdl:a1"))
				c.LockAcquire(l2, event.StmtFor("bdl:a2"))
				c.LockRelease(l2, event.StmtFor("bdl:a3"))
				c.LockRelease(l1, event.StmtFor("bdl:a4"))
			})
			t2 := mt.Fork("t2", func(c *racefuzzer.Thread) {
				c.LockAcquire(l2, event.StmtFor("bdl:b1"))
				c.LockAcquire(l1, event.StmtFor("bdl:b2"))
				c.LockRelease(l1, event.StmtFor("bdl:b3"))
				c.LockRelease(l2, event.StmtFor("bdl:b4"))
			})
			mt.Join(t1)
			mt.Join(t2)
		}
	}
	confirmed := 0
	for i := 0; i < b.N; i++ {
		reps := core.AnalyzeDeadlocks(prog(), core.Options{
			Seed: int64(i), Phase1Trials: 4, Phase2Trials: 10,
		})
		for _, r := range reps {
			if r.IsReal {
				confirmed++
			}
		}
	}
	b.ReportMetric(float64(confirmed)/float64(b.N), "confirmed-cycles")
}

// BenchmarkAtomicityPipeline measures the atomicity instantiation on the
// counter++ lost-update pattern.
func BenchmarkAtomicityPipeline(b *testing.B) {
	prog := func() racefuzzer.Program {
		return bench.MustByName("weblech").New()
	}
	confirmed := 0
	for i := 0; i < b.N; i++ {
		reps := core.AnalyzeAtomicity(prog(), core.Options{
			Seed: int64(i), Phase1Trials: 3, Phase2Trials: 10,
		})
		for _, r := range reps {
			if r.IsReal {
				confirmed++
			}
		}
	}
	b.ReportMetric(float64(confirmed)/float64(b.N), "confirmed-violations")
}

// BenchmarkRAPOSBaseline measures the RAPOS partial-order sampler on the
// Figure-2 program — the §6 baseline that motivated race-directedness.
func BenchmarkRAPOSBaseline(b *testing.B) {
	hits := 0
	for i := 0; i < b.N; i++ {
		w := core.NewRaceWitnessPolicy(core.NewRAPOSPolicy(), bench.Fig2Pair)
		sched.Run(bench.Figure2(50), sched.Config{Seed: int64(i), Policy: w})
		if w.Hit() {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "race-rate")
}

// BenchmarkAnalyzeParallel measures the campaign executor: the full
// two-phase pipeline on jigsaw (the registry's widest phase-2 grid, ≥6
// potential pairs × 50 trials) at increasing worker counts. The reports are
// bit-identical at every width (TestParallelDeterminismRace); only the
// wall-clock changes, and only when GOMAXPROCS offers real cores — on a
// single-core box every width measures the same, plus a little pool
// overhead.
func BenchmarkAnalyzeParallel(b *testing.B) {
	bm := bench.MustByName("jigsaw")
	widths := []int{1, 2, -1} // -1 resolves to runtime.NumCPU()
	for _, w := range widths {
		name := fmt.Sprintf("workers=%d", w)
		if w < 0 {
			name = "workers=numcpu"
		}
		w := w
		b.Run(name, func(b *testing.B) {
			real := 0
			for i := 0; i < b.N; i++ {
				rep := core.Analyze(bm.New(), core.Options{
					Seed:         12345,
					Phase1Trials: bm.Phase1Trials,
					Phase2Trials: 50,
					MaxSteps:     bm.MaxSteps,
					Workers:      w,
				})
				real = rep.RealCount()
			}
			b.ReportMetric(float64(real), "real-races")
		})
	}
}
