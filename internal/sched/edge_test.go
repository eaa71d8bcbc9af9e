package sched

import (
	"strings"
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
)

// alwaysEmptyPolicy never grants: the scheduler's stall-breaker must force
// progress and count it.
type alwaysEmptyPolicy struct{}

func (alwaysEmptyPolicy) Name() string                   { return "always-empty" }
func (alwaysEmptyPolicy) Step(*View, *rng.Rand) Decision { return Decision{} }

func TestStallBreakerForcesProgress(t *testing.T) {
	var final int
	res := Run(counterProgram(2, 3, &final), Config{Seed: 1, Policy: alwaysEmptyPolicy{}})
	if res.Deadlock != nil || res.Aborted {
		t.Fatalf("run wedged: %+v", res)
	}
	if final != 6 {
		t.Fatalf("final = %d", final)
	}
	if res.PolicyStalls == 0 {
		t.Fatal("stall-breaker never fired for an always-empty policy")
	}
}

func TestAccidentalGoPanicRecordedWithStack(t *testing.T) {
	prog := func(mt *Thread) {
		w := mt.Fork("panicker", func(c *Thread) {
			c.Nop(stmt("edge:pre"))
			var s []int
			_ = s[3] // real Go panic: index out of range
		})
		mt.Join(w)
	}
	res := Run(prog, Config{Seed: 2})
	if len(res.Exceptions) != 1 {
		t.Fatalf("exceptions = %v", res.Exceptions)
	}
	ex := res.Exceptions[0]
	if !strings.Contains(ex.Err.Error(), "model thread panicked") {
		t.Fatalf("err = %v", ex.Err)
	}
	if !strings.Contains(ex.Stack, "goroutine") {
		t.Fatal("no stack captured for accidental panic")
	}
	// Model Throw()s must NOT carry stacks (they are expected exceptions).
	prog2 := func(mt *Thread) {
		w := mt.Fork("thrower", func(c *Thread) { c.Throwf("edge: deliberate") })
		mt.Join(w)
	}
	res2 := Run(prog2, Config{Seed: 2})
	if len(res2.Exceptions) != 1 || res2.Exceptions[0].Stack != "" {
		t.Fatalf("deliberate throw carried a stack: %+v", res2.Exceptions)
	}
}

func TestDeadlockWithWaitingThreadsUnwinds(t *testing.T) {
	// A waiter nobody notifies: deadlock must be reported and every
	// goroutine (including the one parked in the wait set) unwound.
	prog := func(mt *Thread) {
		lk := mt.Scheduler().NewLock("mon")
		w := mt.Fork("waiter", func(c *Thread) {
			c.LockAcquire(lk, stmt("dwu:acq"))
			c.MonitorWait(lk, stmt("dwu:wait"))
		})
		mt.Join(w)
	}
	res := Run(prog, Config{Seed: 5})
	if res.Deadlock == nil {
		t.Fatal("lost-wakeup deadlock not reported")
	}
	found := false
	for _, b := range res.Deadlock.Blocked {
		if b.Name == "waiter" && b.Lock != event.NoLock {
			found = true
		}
	}
	if !found {
		t.Fatalf("deadlock info missing the waiter's lock: %v", res.Deadlock)
	}
}

// TestDeadlockInfoShowsJoinCycle: main joins its child while the child
// joins main, so every schedule deadlocks with both threads blocked on a
// join and neither on a lock.
func TestDeadlockInfoShowsJoinCycle(t *testing.T) {
	res := Run(func(mt *Thread) {
		a := mt.Fork("a", func(c *Thread) { c.Join(mt) })
		mt.Join(a)
	}, Config{Seed: 1})
	if res.Deadlock == nil {
		t.Fatal("join cycle did not deadlock")
	}
	if len(res.Deadlock.Blocked) != 2 {
		t.Fatalf("blocked set = %v, want both threads", res.Deadlock)
	}
	for _, b := range res.Deadlock.Blocked {
		if b.Lock != event.NoLock || !strings.HasPrefix(b.Pending, "join ") {
			t.Errorf("%s blocked on %q (lock %v), want a join", b.Name, b.Pending, b.Lock)
		}
	}
}

// TestDeadlockInfoShowsLockAndJoinEdges: main holds L and joins a child
// blocked acquiring L. The deadlock names the child's lock and main's join.
func TestDeadlockInfoShowsLockAndJoinEdges(t *testing.T) {
	var lk event.LockID
	res := Run(func(mt *Thread) {
		lk = mt.Scheduler().NewLock("L")
		mt.LockAcquire(lk, stmt("dlj:main-acq"))
		w := mt.Fork("w", func(c *Thread) {
			c.LockAcquire(lk, stmt("dlj:w-acq"))
			c.LockRelease(lk, stmt("dlj:w-rel"))
		})
		mt.Join(w)
	}, Config{Seed: 7})
	if res.Deadlock == nil {
		t.Fatal("lock/join program did not deadlock")
	}
	var sawLock, sawJoin bool
	for _, b := range res.Deadlock.Blocked {
		switch {
		case b.Name == "w" && b.Lock == lk:
			sawLock = true
		case b.Name == "main" && b.Lock == event.NoLock && strings.HasPrefix(b.Pending, "join "):
			sawJoin = true
		}
	}
	if !sawLock || !sawJoin || len(res.Deadlock.Blocked) != 2 {
		t.Fatalf("deadlock = %v, want w blocked on L and main on its join", res.Deadlock)
	}
}

func TestResultCounters(t *testing.T) {
	var final int
	res := Run(counterProgram(3, 2, &final), Config{Seed: 8, Name: "counters"})
	if res.Name != "counters" || res.Seed != 8 {
		t.Fatalf("metadata wrong: %+v", res)
	}
	if res.Threads != 4 { // main + 3 workers
		t.Fatalf("threads = %d", res.Threads)
	}
	if res.Locks != 1 {
		t.Fatalf("locks = %d", res.Locks)
	}
	// counter loc + 4 per-thread interrupt locs.
	if res.Locations != 5 {
		t.Fatalf("locations = %d", res.Locations)
	}
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
	// Three workers entering one after another switch at least twice, and
	// never more than once per step.
	if res.Switches < 2 || res.Switches >= res.Steps {
		t.Fatalf("switches = %d (steps %d)", res.Switches, res.Steps)
	}
}

func TestViewAccessors(t *testing.T) {
	checked := false
	probe := policyFunc(func(v *View, r *rng.Rand) Decision {
		if len(v.Enabled) > 0 {
			tid := v.Enabled[0]
			if !v.IsEnabled(tid) || !v.IsAlive(tid) {
				t.Error("enabled thread reported disabled/dead")
			}
			if v.AliveCount() <= 0 || v.Threads() <= 0 {
				t.Error("counts wrong")
			}
			if v.LocName(event.MemLoc(999)) == "" {
				t.Error("LocName empty for unknown loc")
			}
			checked = true
		}
		return Grant(v.Enabled[r.Intn(len(v.Enabled))])
	})
	var final int
	Run(counterProgram(2, 2, &final), Config{Seed: 3, Policy: probe})
	if !checked {
		t.Fatal("probe never ran")
	}
}

func TestHeldLocksView(t *testing.T) {
	sawHeld := false
	probe := policyFunc(func(v *View, r *rng.Rand) Decision {
		for _, tid := range v.Enabled {
			if len(v.HeldLocks(tid)) > 0 {
				sawHeld = true
				if v.LockHolder(v.HeldLocks(tid)[0]) != tid {
					t.Error("LockHolder inconsistent with HeldLocks")
				}
			}
		}
		return Grant(v.Enabled[r.Intn(len(v.Enabled))])
	})
	var final int
	Run(counterProgram(2, 3, &final), Config{Seed: 4, Policy: probe})
	if !sawHeld {
		t.Fatal("never observed a thread holding a lock")
	}
}

func TestWorkloadRandIsSeedDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		var out []int
		Run(func(mt *Thread) {
			for i := 0; i < 5; i++ {
				out = append(out, mt.Rand().Intn(1000))
			}
		}, Config{Seed: seed})
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("workload RNG not seed-deterministic")
		}
	}
	c := draw(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds gave identical workload streams")
	}
}
