package bench

import (
	"errors"

	"racefuzzer/internal/conc"
	"racefuzzer/internal/event"
)

// The example programs of the paper's Figures 1 and 2, with statement labels
// matching the paper's line numbers so reports read like the paper.

// Errors thrown by the figure programs.
var (
	ErrError1 = errors.New("ERROR1: figure1 thread1 observed z==1")
	ErrError2 = errors.New("ERROR2: figure1 thread2 observed x!=1")
	ErrFig2   = errors.New("ERROR: figure2 thread1 observed x==0")
)

// Figure-1 statement labels (the paper's line numbers).
var (
	Fig1Stmt1  = event.StmtFor("figure1:1 x=1")
	Fig1Stmt3  = event.StmtFor("figure1:3 y=1")
	Fig1Stmt5  = event.StmtFor("figure1:5 if(z==1)")
	Fig1Stmt7  = event.StmtFor("figure1:7 z=1")
	Fig1Stmt9  = event.StmtFor("figure1:9 if(y==1)")
	Fig1Stmt10 = event.StmtFor("figure1:10 if(x!=1)")
)

// Fig1PairZ is the real race of Figure 1 (statements 5 and 7, variable z).
var Fig1PairZ = event.MakeStmtPair(Fig1Stmt5, Fig1Stmt7)

// Fig1PairX is the false alarm of Figure 1 (statements 1 and 10, variable x;
// implicitly synchronized by y under lock L).
var Fig1PairX = event.MakeStmtPair(Fig1Stmt1, Fig1Stmt10)

// Figure1 is the paper's Figure 1: a two-threaded program with one real race
// (on z) and one apparent-but-false race (on x). Hybrid detection reports
// both pairs; RaceFuzzer confirms only (5,7) and reaches ERROR1 with
// probability ½ when it resolves the race z-write-first.
func Figure1() Program {
	return func(t *conc.Thread) {
		x := conc.NewVar(t, "x", 0)
		y := conc.NewVar(t, "y", 0)
		z := conc.NewVar(t, "z", 0)
		l := conc.NewMutex(t, "L")

		t1 := t.ForkAt("thread1", func(c *conc.Thread) {
			x.SetAt(c, Fig1Stmt1, 1)            // 1: x = 1
			l.LockAt(c, siteFigures50.Stmt())   // 2: lock(L)
			y.SetAt(c, Fig1Stmt3, 1)            // 3: y = 1
			l.UnlockAt(c, siteFigures52.Stmt()) // 4: unlock(L)
			if z.GetAt(c, Fig1Stmt5) == 1 {     // 5: if (z == 1)
				c.Throw(ErrError1) // 6: ERROR1
			}
		}, siteFigures48.Stmt())
		t2 := t.ForkAt("thread2", func(c *conc.Thread) {
			z.SetAt(c, Fig1Stmt7, 1)          // 7: z = 1
			l.LockAt(c, siteFigures59.Stmt()) // 8: lock(L)
			if y.GetAt(c, Fig1Stmt9) == 1 {   // 9: if (y == 1)
				if x.GetAt(c, Fig1Stmt10) != 1 { // 10: if (x != 1)
					c.Throw(ErrError2) // 11: ERROR2
				}
			}
			l.UnlockAt(c, siteFigures65.Stmt()) // 14: unlock(L)
		}, siteFigures57.Stmt())
		t.JoinAt(t1, siteFigures67.Stmt())
		t.JoinAt(t2, siteFigures68.Stmt())
	}
}

// Figure-2 statement labels.
var (
	Fig2Stmt8  = event.StmtFor("figure2:8 if(x==0)")
	Fig2Stmt10 = event.StmtFor("figure2:10 x=1")
	fig2StmtF  = event.StmtFor("figure2:f_i()")
)

// Fig2Pair is the real race of Figure 2 (statements 8 and 10, variable x).
var Fig2Pair = event.MakeStmtPair(Fig2Stmt8, Fig2Stmt10)

// Figure2 is the paper's Figure 2, parameterized by prefixLen — the number
// of untracked statements (the f1()…f5() calls) thread1 executes inside the
// lock before reading x. The argument of §3.2: a simple random scheduler's
// chance of bringing statements 8 and 10 temporally next to each other
// decays with prefixLen, while RaceFuzzer creates the race with probability
// 1 and reaches ERROR with probability ½ independent of prefixLen.
func Figure2(prefixLen int) Program {
	return func(t *conc.Thread) {
		x := conc.NewVar(t, "x", 0)
		l := conc.NewMutex(t, "L")

		t1 := t.ForkAt("thread1", func(c *conc.Thread) {
			l.LockAt(c, siteFigures94.Stmt()) // 1: lock(L)
			for i := 0; i < prefixLen; i++ {
				c.Nop(fig2StmtF) // 2..6: f1()…f5()
			}
			l.UnlockAt(c, siteFigures98.Stmt()) // 7: unlock(L)
			if x.GetAt(c, Fig2Stmt8) == 0 {     // 8: if (x == 0)
				c.Throw(ErrFig2) // 9: ERROR
			}
		}, siteFigures93.Stmt())
		t2 := t.ForkAt("thread2", func(c *conc.Thread) {
			x.SetAt(c, Fig2Stmt10, 1)            // 10: x = 1
			l.LockAt(c, siteFigures105.Stmt())   // 11: lock(L)
			c.Nop(fig2StmtF)                     // 12: f6()
			l.UnlockAt(c, siteFigures107.Stmt()) // 13: unlock(L)
		}, siteFigures103.Stmt())
		t.JoinAt(t1, siteFigures109.Stmt())
		t.JoinAt(t2, siteFigures110.Stmt())
	}
}

func init() {
	register(Benchmark{
		Name:        "figure1",
		Description: "paper Figure 1: real race on z, false alarm on x, ERROR1 reachable",
		Paper:       PaperRow{SLOC: 14, HybridRaces: 2, RealRaces: 1, KnownRaces: 1, ExceptionPairs: 1, SimpleExceptions: 0, Probability: 1.0, NormalSec: -1, HybridSec: -1, RaceFuzzerSec: -1},
		Expect:      Expect{MinReal: 1, MaxReal: 1, MinPotential: 2, MinExceptionPairs: 1, MaxExceptionPairs: 1, MinProbability: 0.95},
		New:         func() Program { return Figure1() },
		// Statement 10 only executes in schedules where thread1's locked
		// region runs first; a few extra phase-1 observations make the x
		// false alarm reliably appear.
		Phase1Trials: 8,
	})
	register(Benchmark{
		Name:        "figure2",
		Description: "paper Figure 2: hard-to-hit race on x; RaceFuzzer hits with p=1, ERROR with p=0.5",
		Paper:       PaperRow{SLOC: 13, HybridRaces: 1, RealRaces: 1, KnownRaces: 1, ExceptionPairs: 1, SimpleExceptions: 0, Probability: 1.0, NormalSec: -1, HybridSec: -1, RaceFuzzerSec: -1},
		Expect:      Expect{MinReal: 1, MaxReal: 1, MinPotential: 1, MinExceptionPairs: 1, MaxExceptionPairs: 1, MinProbability: 0.95},
		New:         func() Program { return Figure2(40) },
	})
}

// Figure2Noisy is Figure 2 with `noise` additional bystander threads that
// compute and synchronize but never touch x. Bystanders dilute every
// undirected scheduler's chance of aligning statements 8 and 10, while
// RaceFuzzer's postponement is immune to them — the robustness extension
// experiment in EXPERIMENTS.md.
func Figure2Noisy(prefixLen, noise int) Program {
	base := Figure2(prefixLen)
	noiseStmt := event.StmtFor("figure2noisy: bystander work")
	return func(t *conc.Thread) {
		noiseLock := conc.NewMutex(t, "noiseLock")
		scratch := conc.NewIntVar(t, "scratch", 0)
		bystanders := conc.ForkN(t, "bystander", noise, func(c *conc.Thread, i int) {
			for k := 0; k < 12; k++ {
				c.Nop(noiseStmt)
				noiseLock.LockAt(c, siteFigures149.Stmt())
				scratch.AddAt(c, siteFigures150.Stmt(), 1)
				noiseLock.UnlockAt(c, siteFigures151.Stmt())
			}
		})
		base(t)
		conc.JoinAll(t, bystanders)
	}
}
