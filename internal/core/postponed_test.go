package core

import (
	"slices"
	"sort"
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
)

// TestPostponedSetMatchesSortedMap drives postponedSet and the map+sort
// model it replaced through random add/del/sorted/candidates sequences: the
// ascending order is what keeps every policy's random draws, and so every
// seed's schedule, unchanged.
func TestPostponedSetMatchesSortedMap(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 200; trial++ {
		var set postponedSet
		ref := map[event.ThreadID]int{}
		threads := 1 + r.Intn(12)
		for op := 0; op < 300; op++ {
			tid := event.ThreadID(r.Intn(threads))
			switch r.Intn(4) {
			case 0:
				set.add(tid, op)
				ref[tid] = op
			case 1:
				set.del(tid)
				delete(ref, tid)
			case 2:
				want := make([]event.ThreadID, 0, len(ref))
				for k := range ref {
					want = append(want, k)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				got := set.sorted()
				if !equalThreads(got, want) {
					t.Fatalf("trial %d op %d: sorted %v, want %v", trial, op, got, want)
				}
				for _, k := range got {
					if set.at[k] != ref[k] {
						t.Fatalf("trial %d op %d: thread %s step %d, want %d", trial, op, k, set.at[k], ref[k])
					}
				}
			case 3:
				var enabled, want []event.ThreadID
				for k := 0; k < threads+2; k++ {
					if r.Bool() {
						enabled = append(enabled, event.ThreadID(k))
						if _, pp := ref[event.ThreadID(k)]; !pp {
							want = append(want, event.ThreadID(k))
						}
					}
				}
				if got := set.candidates(enabled); !equalThreads(got, want) {
					t.Fatalf("trial %d op %d: candidates(%v) = %v, want %v", trial, op, enabled, got, want)
				}
			}
			if _, in := ref[tid]; set.has(tid) != in {
				t.Fatalf("trial %d op %d: has(%s) = %v, want %v", trial, op, tid, !in, in)
			}
		}
	}
}

func equalThreads(a, b []event.ThreadID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allocProbe wraps a directed policy. At the first round where ready holds,
// it measures the inner Step on that frozen view with testing.AllocsPerRun,
// then lets the run continue. The view stays valid for the whole probe: all
// model threads are parked at the quiescent point. Each measured call
// advances the view's step so the livelock monitor's aging path runs too.
// A measured call runs probeBatch Steps: AllocsPerRun floors the mean, so
// one allocation every few Steps would read as zero per single Step.
type allocProbe struct {
	inner  sched.Policy
	ready  func(v *sched.View) bool
	allocs float64
	probed bool
}

const probeBatch = 8

func (a *allocProbe) Name() string { return a.inner.Name() }

func (a *allocProbe) Step(v *sched.View, r *rng.Rand) sched.Decision {
	if !a.probed && a.ready(v) {
		a.probed = true
		step := v.Step
		a.allocs = testing.AllocsPerRun(100, func() {
			for i := 0; i < probeBatch; i++ {
				v.Step++
				a.inner.Step(v, r)
			}
		})
		v.Step = step
	}
	return a.inner.Step(v, r)
}

// pendingKinds counts the enabled threads whose pending op satisfies match.
func pendingKinds(v *sched.View, match func(sched.Op) bool) int {
	n := 0
	for _, tid := range v.Enabled {
		if match(v.Op(tid)) {
			n++
		}
	}
	return n
}

func runAllocProbe(t *testing.T, prog Program, probe *allocProbe) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation probe runs whole executions")
	}
	res := sched.Run(prog, sched.Config{Seed: 7, Policy: probe})
	if res.Deadlock != nil || res.Aborted {
		t.Fatalf("probe run did not terminate cleanly: %+v", res)
	}
	if !probe.probed {
		t.Fatal("the probed state never occurred")
	}
	if probe.allocs != 0 {
		t.Fatalf("steady-state %s Step allocates %.2f times per %d calls, want 0", probe.Name(), probe.allocs, probeBatch)
	}
}

// TestRaceFuzzerStepDoesNotAllocate: three threads wait at a target
// statement on distinct locations, so no race can be confirmed and the
// frozen view cycles Algorithm 1 through postpone, line-26 eviction, the
// just-released grant and livelock aging.
func TestRaceFuzzerStepDoesNotAllocate(t *testing.T) {
	target := event.StmtFor("alloc:rf-target")
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		var kids []*sched.Thread
		for i := 0; i < 3; i++ {
			loc := s.NewLoc("own")
			kids = append(kids, mt.Fork("w", func(c *sched.Thread) { c.MemWrite(loc, target) }))
		}
		spin := s.NewLoc("spin")
		kids = append(kids, mt.Fork("spin", func(c *sched.Thread) { c.MemWrite(spin, event.StmtFor("alloc:rf-spin")) }))
		for _, k := range kids {
			mt.Join(k)
		}
	}
	pol := &RaceFuzzerPolicy{Target: event.MakeStmtPair(target, target), MaxPostponeAge: 3}
	runAllocProbe(t, prog, &allocProbe{inner: pol, ready: func(v *sched.View) bool {
		return pendingKinds(v, func(op sched.Op) bool { return op.IsMem() && op.Stmt == target }) == 3
	}})
	if len(pol.Races()) != 0 {
		t.Fatalf("distinct locations cannot race: %v", pol.Races())
	}
	if released, aged := pol.Stats(); released == 0 || aged == 0 {
		t.Fatalf("probe missed a relief valve: released %d, aged %d", released, aged)
	}
}

// TestDeadlockDirectedStepDoesNotAllocate: three threads each hold a lock
// and are about to take a second, free one, so every selection is a nested
// acquisition the policy postpones until it must evict one.
func TestDeadlockDirectedStepDoesNotAllocate(t *testing.T) {
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		var kids []*sched.Thread
		for i := 0; i < 3; i++ {
			outer, inner := s.NewLock("outer"), s.NewLock("inner")
			kids = append(kids, mt.Fork("n", func(c *sched.Thread) {
				c.LockAcquire(outer, event.StmtFor("alloc:dl-outer"))
				c.LockAcquire(inner, event.StmtFor("alloc:dl-inner"))
				c.LockRelease(inner, event.StmtFor("alloc:dl-rel-inner"))
				c.LockRelease(outer, event.StmtFor("alloc:dl-rel-outer"))
			}))
		}
		for _, k := range kids {
			mt.Join(k)
		}
	}
	inner := event.StmtFor("alloc:dl-inner")
	runAllocProbe(t, prog, &allocProbe{inner: &DeadlockDirectedPolicy{MaxPostponeAge: 3},
		ready: func(v *sched.View) bool {
			return pendingKinds(v, func(op sched.Op) bool { return op.Kind == sched.OpLock && op.Stmt == inner }) == 3
		}})
}

// TestAtomicityDirectedStepDoesNotAllocate: a victim waits at Second while
// the interferer waits on a different location, so no violation can be
// confirmed and both sides cycle through postponement and eviction.
func TestAtomicityDirectedStepDoesNotAllocate(t *testing.T) {
	first, second := event.StmtFor("alloc:at-first"), event.StmtFor("alloc:at-second")
	inter := event.StmtFor("alloc:at-inter")
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		block, other := s.NewLoc("block"), s.NewLoc("other")
		victim := mt.Fork("victim", func(c *sched.Thread) {
			c.MemRead(block, first)
			c.MemWrite(block, second)
		})
		interferer := mt.Fork("interferer", func(c *sched.Thread) { c.MemWrite(other, inter) })
		mt.Join(victim)
		mt.Join(interferer)
	}
	pol := &AtomicityDirectedPolicy{MaxPostponeAge: 3,
		Target: AtomicityTarget{First: first, Second: second, Interferers: []event.Stmt{inter}}}
	runAllocProbe(t, prog, &allocProbe{inner: pol, ready: func(v *sched.View) bool {
		return pendingKinds(v, func(op sched.Op) bool { return op.Stmt == second || op.Stmt == inter }) == 2
	}})
	if len(pol.Violations()) != 0 {
		t.Fatalf("distinct locations cannot violate the block: %v", pol.Violations())
	}
}

// actionTally counts a run's policy actions by kind.
type actionTally map[sched.ActionKind]int

func (actionTally) OnEvent(event.Event)             {}
func (a actionTally) OnAction(r sched.ActionRecord) { a[r.Kind]++ }

// TestNegativePostponeAgeDisablesLivelockMonitor: MaxPostponeAge < 0 turns
// the livelock monitor off in every directed policy, so threads postponed
// along the way are never released by age.
func TestNegativePostponeAgeDisablesLivelockMonitor(t *testing.T) {
	target := event.StmtFor("live:target")
	parkForever := func(mt *sched.Thread) {
		s := mt.Scheduler()
		loc, spin := s.NewLoc("x"), s.NewLoc("spin")
		a := mt.Fork("a", func(c *sched.Thread) { c.MemWrite(loc, target) })
		b := mt.Fork("b", func(c *sched.Thread) {
			for i := 0; i < 300; i++ {
				c.MemWrite(spin, event.StmtFor("live:spin"))
			}
		})
		mt.Join(a)
		mt.Join(b)
	}
	atomicity := DetectAtomicityTargets(lostUpdateProgram(nil), Options{Seed: 8, Phase1Trials: 6})
	i := slices.IndexFunc(atomicity, func(tg AtomicityTarget) bool { return tg.First == event.StmtFor("lu:read") })
	if i < 0 {
		t.Fatalf("lost-update block not inferred; targets = %v", atomicity)
	}
	for _, c := range []struct {
		name   string
		prog   Program
		policy func() sched.Policy
	}{
		{"racefuzzer", parkForever, func() sched.Policy {
			return &RaceFuzzerPolicy{Target: event.MakeStmtPair(target, target), MaxPostponeAge: -1}
		}},
		{"deadlock", abbaProgram(), func() sched.Policy { return &DeadlockDirectedPolicy{MaxPostponeAge: -1} }},
		{"atomicity", lostUpdateProgram(nil), func() sched.Policy {
			return &AtomicityDirectedPolicy{Target: atomicity[i], MaxPostponeAge: -1}
		}},
	} {
		tally := actionTally{}
		for seed := int64(0); seed < 50; seed++ {
			sched.Run(c.prog, sched.Config{Seed: seed, Policy: c.policy(), Observers: []sched.Observer{tally}})
		}
		if tally[sched.ActPostpone] == 0 {
			t.Fatalf("%s: no postpones in 50 runs; the check is vacuous", c.name)
		}
		if n := tally[sched.ActLivelockBreak]; n != 0 {
			t.Errorf("%s: %d livelock breaks for %d postpones with the monitor off",
				c.name, n, tally[sched.ActPostpone])
		}
	}
}
