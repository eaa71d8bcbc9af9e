package core

import (
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

// lostUpdateProgram: two threads perform unlocked counter increments (the
// classic lost-update block) plus one properly locked counter for contrast.
func lostUpdateProgram(final *int) Program {
	rStmt := event.StmtFor("lu:read")
	wStmt := event.StmtFor("lu:write")
	lrStmt := event.StmtFor("lu:lockedread")
	lwStmt := event.StmtFor("lu:lockedwrite")
	return func(mt *sched.Thread) {
		s := mt.Scheduler()
		loc := s.NewLoc("counter")
		safeLoc := s.NewLoc("safe")
		lk := s.NewLock("L")
		counter, safe := 0, 0
		body := func(c *sched.Thread) {
			c.MemRead(loc, rStmt)
			v := counter
			c.MemWrite(loc, wStmt)
			counter = v + 1

			c.LockAcquire(lk, event.StmtFor("lu:acq"))
			c.MemRead(safeLoc, lrStmt)
			sv := safe
			c.MemWrite(safeLoc, lwStmt)
			safe = sv + 1
			c.LockRelease(lk, event.StmtFor("lu:rel"))
		}
		a := mt.Fork("a", body)
		b := mt.Fork("b", body)
		mt.Join(a)
		mt.Join(b)
		if final != nil {
			*final = counter
		}
	}
}

// confirmAtomicity is the atomicity phase 2 for one block, numbered
// targetIndex.
func confirmAtomicity(prog Program, b AtomicityTarget, targetIndex int, o Options) AtomicityReport {
	t := newAtomicBlock(b)
	return t.report(confirm(prog, []Target{t}, targetIndex, o)[0])
}

func TestAtomicityPipelineFindsLostUpdate(t *testing.T) {
	opts := Options{Seed: 8, Phase1Trials: 6, Phase2Trials: 40}
	targets := DetectAtomicityTargets(lostUpdateProgram(nil), opts)
	var unlocked *AtomicityTarget
	for i := range targets {
		tg := targets[i]
		if tg.First == event.StmtFor("lu:read") {
			unlocked = &tg
		}
		if tg.First == event.StmtFor("lu:lockedread") {
			t.Fatalf("locked block inferred as candidate: %v", tg)
		}
	}
	if unlocked == nil {
		t.Fatalf("lost-update block not inferred; targets = %v", targets)
	}

	rep := confirmAtomicity(lostUpdateProgram(nil), *unlocked, 0, opts)
	if !rep.IsReal {
		t.Fatalf("violation not confirmed: %v", rep)
	}
	if rep.Probability < 0.5 {
		t.Fatalf("violation probability %.2f, want high (directed)", rep.Probability)
	}

	// The confirmed violation must manifest as a lost update in some run.
	lost := false
	for i := int64(0); i < 40 && !lost; i++ {
		var final int
		pol := NewAtomicityDirectedPolicy(*unlocked)
		sched.Run(lostUpdateProgram(&final), sched.Config{Seed: 3000 + i, Policy: pol})
		if len(pol.Violations()) > 0 && final == 1 {
			lost = true
		}
	}
	if !lost {
		t.Fatal("violation never manifested as a lost update")
	}
}

func TestAnalyzeAtomicityEndToEnd(t *testing.T) {
	reps := AnalyzeAtomicity(lostUpdateProgram(nil), Options{Seed: 17, Phase1Trials: 4, Phase2Trials: 20})
	if len(reps) == 0 {
		t.Fatal("no atomicity reports")
	}
	real := 0
	for _, r := range reps {
		if r.IsReal {
			real++
		}
		if r.String() == "" {
			t.Fatal("empty report")
		}
	}
	if real == 0 {
		t.Fatalf("no confirmed violations: %v", reps)
	}
}

func TestAtomicityPipelineQuietOnAtomicProgram(t *testing.T) {
	// All increments locked: no candidates at all.
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		loc := s.NewLoc("x")
		lk := s.NewLock("L")
		x := 0
		body := func(c *sched.Thread) {
			for i := 0; i < 3; i++ {
				c.LockAcquire(lk, event.StmtFor("qa:acq"))
				c.MemRead(loc, event.StmtFor("qa:read"))
				v := x
				c.MemWrite(loc, event.StmtFor("qa:write"))
				x = v + 1
				c.LockRelease(lk, event.StmtFor("qa:rel"))
			}
		}
		a := mt.Fork("a", body)
		b := mt.Fork("b", body)
		mt.Join(a)
		mt.Join(b)
	}
	targets := DetectAtomicityTargets(prog, Options{Seed: 4, Phase1Trials: 5})
	if len(targets) != 0 {
		t.Fatalf("candidates on a fully locked program: %v", targets)
	}
}
