package conc

import (
	"fmt"
	"strings"
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

func runProg(t *testing.T, seed int64, body func(*Thread)) *sched.Result {
	t.Helper()
	res := sched.Run(body, sched.Config{Seed: seed})
	if res.Deadlock != nil {
		t.Fatalf("deadlock: %v", res.Deadlock)
	}
	if len(res.Exceptions) != 0 {
		t.Fatalf("exceptions: %v", res.Exceptions)
	}
	return res
}

func TestVarGetSet(t *testing.T) {
	runProg(t, 1, func(mt *Thread) {
		v := NewVar(mt, "x", 10)
		if v.Get(mt) != 10 {
			mt.Throwf("init = %d", v.Get(mt))
		}
		v.Set(mt, 42)
		if v.Get(mt) != 42 || v.Peek() != 42 {
			mt.Throwf("after set = %d", v.Get(mt))
		}
		if name := mt.Scheduler().LocName(v.loc); name != "x" {
			mt.Throwf("name = %q", name)
		}
		s := NewVar(mt, "s", "hello")
		s.Set(mt, s.Get(mt)+" world")
		if s.Get(mt) != "hello world" {
			mt.Throwf("string var = %q", s.Get(mt))
		}
	})
}

func TestIntVarAddIsReadThenWrite(t *testing.T) {
	counter := &sched.CountingObserver{}
	sched.Run(func(mt *Thread) {
		v := NewIntVar(mt, "n", 5)
		if got := v.Add(mt, 3); got != 8 {
			mt.Throwf("Add returned %d", got)
		}
		if v.Get(mt) != 8 {
			mt.Throwf("value = %d", v.Get(mt))
		}
	}, sched.Config{Seed: 1, Observers: []sched.Observer{counter}})
	// Add = 1 read + 1 write; Get = 1 read → 3 mem events.
	if counter.Mem != 3 {
		t.Fatalf("mem events = %d, want 3", counter.Mem)
	}
}

func TestArrayPerElementLocations(t *testing.T) {
	runProg(t, 1, func(mt *Thread) {
		a := NewArray[int](mt, "arr", 5)
		if a.Len() != 5 {
			mt.Throwf("len = %d", a.Len())
		}
		for i := 0; i < 5; i++ {
			a.Set(mt, i, i*i)
		}
		for i := 0; i < 5; i++ {
			if a.Get(mt, i) != i*i || a.Peek(i) != i*i {
				mt.Throwf("a[%d] = %d", i, a.Get(mt, i))
			}
		}
		// Locations must be distinct and consecutive.
		for i := 1; i < 5; i++ {
			if a.LocOf(i) == a.LocOf(i-1) {
				mt.Throwf("aliased locations at %d", i)
			}
		}
	})
}

// TestArrayOutOfRangeTouchesNoNeighbour: an out-of-range index throws
// before the access reaches the scheduler. Element i's location is base+i,
// so a late bounds check would show phase 1 and the RaceFuzzer policy an
// access to the neighbouring array's location.
func TestArrayOutOfRangeTouchesNoNeighbour(t *testing.T) {
	ops := map[string]func(mt *Thread, a *Array[int]){
		"Get past the end":   func(mt *Thread, a *Array[int]) { a.Get(mt, a.Len()) },
		"Set past the end":   func(mt *Thread, a *Array[int]) { a.Set(mt, a.Len(), 1) },
		"GetAt before start": func(mt *Thread, a *Array[int]) { a.GetAt(mt, stmt("oob:get"), -1) },
		"SetAt past the end": func(mt *Thread, a *Array[int]) { a.SetAt(mt, stmt("oob:set"), a.Len(), 1) },
	}
	for name, op := range ops {
		var before, after *Array[int]
		var mems []event.Event
		res := sched.Run(func(mt *Thread) {
			before = NewArray[int](mt, "before", 2)
			a := NewArray[int](mt, "a", 2)
			after = NewArray[int](mt, "after", 2)
			op(mt, a)
		}, sched.Config{Seed: 1, Observers: []sched.Observer{sched.ObserverFunc(func(e event.Event) {
			if e.Kind == event.KindMem {
				mems = append(mems, e)
			}
		})}})
		if len(res.Exceptions) != 1 || !strings.Contains(res.Exceptions[0].Err.Error(), "ArrayIndexOutOfBoundsException") {
			t.Errorf("%s: exceptions %v, want one ArrayIndexOutOfBoundsException", name, res.Exceptions)
		}
		for _, e := range mems {
			for _, n := range []*Array[int]{before, after} {
				if e.Loc >= n.LocOf(0) && e.Loc < n.LocOf(n.Len()) {
					t.Errorf("%s: event %v on a neighbouring array's location", name, e)
				}
			}
		}
	}
}

func TestMutexSyncRunsBody(t *testing.T) {
	runProg(t, 1, func(mt *Thread) {
		m := NewMutex(mt, "m")
		ran := false
		m.Sync(mt, func() { ran = true })
		if !ran {
			mt.Throwf("Sync body did not run")
		}
	})
}

func TestBarrierPhases(t *testing.T) {
	// Each worker increments phase-1 counter, barrier, then checks that all
	// phase-1 increments are visible: the barrier really is a barrier.
	for seed := int64(0); seed < 15; seed++ {
		violations := 0
		prog := func(mt *Thread) {
			const n = 4
			bar := NewBarrier(mt, "b", n)
			phase1 := NewIntVar(mt, "phase1", 0)
			lock := NewMutex(mt, "l")
			workers := ForkN(mt, "w", n, func(c *Thread, i int) {
				lock.Lock(c)
				phase1.Add(c, 1)
				lock.Unlock(c)
				bar.Await(c)
				lock.Lock(c)
				if phase1.Get(c) != n {
					violations++
				}
				lock.Unlock(c)
			})
			JoinAll(mt, workers)
		}
		res := sched.Run(prog, sched.Config{Seed: seed})
		if res.Deadlock != nil {
			t.Fatalf("seed %d: deadlock %v", seed, res.Deadlock)
		}
		if violations != 0 {
			t.Fatalf("seed %d: %d barrier violations", seed, violations)
		}
	}
}

func TestBarrierIsCyclic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		prog := func(mt *Thread) {
			const n, rounds = 3, 4
			bar := NewBarrier(mt, "b", n)
			progress := NewArray[int](mt, "progress", n)
			lock := NewMutex(mt, "l")
			workers := ForkN(mt, "w", n, func(c *Thread, i int) {
				for r := 0; r < rounds; r++ {
					progress.Set(c, i, r+1)
					bar.Await(c)
					// After the barrier, every worker must have reached r+1.
					lock.Lock(c)
					for j := 0; j < n; j++ {
						if progress.Get(c, j) < r+1 {
							c.Throwf("round %d: worker %d lagging", r, j)
						}
					}
					lock.Unlock(c)
					bar.Await(c)
				}
			})
			JoinAll(mt, workers)
		}
		res := sched.Run(prog, sched.Config{Seed: seed})
		if res.Deadlock != nil || len(res.Exceptions) != 0 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
	}
}

func TestForkNIndices(t *testing.T) {
	runProg(t, 2, func(mt *Thread) {
		seen := make([]bool, 6)
		kids := ForkN(mt, "idx", 6, func(c *Thread, i int) {
			seen[i] = true
		})
		if len(kids) != 6 {
			mt.Throwf("forked %d", len(kids))
		}
		JoinAll(mt, kids)
		for i, s := range seen {
			if !s {
				mt.Throwf("index %d not seen", i)
			}
		}
	})
}

func TestVarNamesInLocations(t *testing.T) {
	runProg(t, 1, func(mt *Thread) {
		v := NewVar(mt, "named", 0)
		if got := mt.Scheduler().LocName(v.loc); got != "named" {
			mt.Throwf("loc name = %q", got)
		}
		a := NewArray[int](mt, "arr", 3)
		if got := mt.Scheduler().LocName(a.LocOf(2)); got != "arr[2]" {
			mt.Throwf("array loc name = %q", got)
		}
	})
}

// TestNewArrayAllocsIndependentOfLength: element names are rendered on
// demand, so allocating a 4096-element array costs what a 1-element one
// does (the array header and its value slice).
func TestNewArrayAllocsIndependentOfLength(t *testing.T) {
	var small, large float64
	runProg(t, 1, func(mt *Thread) {
		small = testing.AllocsPerRun(50, func() { NewArray[int](mt, "a", 1) })
		large = testing.AllocsPerRun(50, func() { NewArray[int](mt, "a", 4096) })
	})
	if small != large || large > 2 {
		t.Fatalf("NewArray allocates %.0f times at n=1 and %.0f at n=4096, want the same (at most 2)", small, large)
	}
}

// TestIndexedVarNames: an indexed variable is named base, index, suffix —
// the same bytes the collections formatted per node with fmt.Sprintf.
func TestIndexedVarNames(t *testing.T) {
	runProg(t, 1, func(mt *Thread) {
		v := NewIndexedVar[*int](mt, "set.node", 12, ".left", nil)
		if want, got := fmt.Sprintf("%s.node%d", "set", 12)+".left", mt.Scheduler().LocName(v.loc); got != want {
			mt.Throwf("indexed var name = %q, want %q", got, want)
		}
		a := NewArray[int](mt, "buf", 3)
		for i := 0; i < a.Len(); i++ {
			if got, want := mt.Scheduler().LocName(a.LocOf(i)), fmt.Sprintf("buf[%d]", i); got != want {
				mt.Throwf("element %d named %q, want %q", i, got, want)
			}
		}
	})
}
