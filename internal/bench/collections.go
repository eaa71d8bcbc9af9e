package bench

import (
	"racefuzzer/internal/collections"
	"racefuzzer/internal/conc"
	"racefuzzer/internal/event"
)

// workStmt labels the drivers' application "think time" between collection
// operations.
var workStmt = event.StmtFor("driver: application work")

// Drivers for the open programs of Table 1: the JDK collection classes,
// closed with the paper's multi-threaded test-driver recipe — "a test driver
// starts by creating two empty objects of the class … and a set of threads,
// where each thread executes different methods of either of the two objects
// concurrently" (§5.1). The drivers are deterministic scripts; all
// nondeterminism is scheduling.

// listDriver closes over a List constructor and exercises the §5.3 bug
// surface: containsAll/equals iterate one synchronized wrapper while other
// threads mutate it through its own lock.
func listDriver(mk func(t *conc.Thread, name string) collections.List) Program {
	return func(t *conc.Thread) {
		l1 := collections.NewSynchronizedList(t, "l1", mk(t, "raw1"))
		l2 := collections.NewSynchronizedList(t, "l2", mk(t, "raw2"))
		seed := collections.NewArrayList(t, "seedvals")
		for i := 0; i < 4; i++ {
			l1.Add(t, i)
			l2.Add(t, i)
			seed.Add(t, i)
		}
		workers := []*conc.Thread{
			t.ForkAt("containsAll", func(c *conc.Thread) {
				l1.ContainsAll(c, l2) // iterates l2 under l1's lock only
			}, siteCollections34.Stmt()),
			t.ForkAt("removeAll", func(c *conc.Thread) {
				// Application work precedes the bulk mutation, so undirected
				// schedules rarely overlap it with a live iteration.
				for i := 0; i < 140; i++ {
					c.Nop(workStmt)
				}
				l2.RemoveAll(c, seed) // mutates l2 under l2's lock
			}, siteCollections37.Stmt()),
			t.ForkAt("adder", func(c *conc.Thread) {
				for i := 0; i < 100; i++ {
					c.Nop(workStmt)
				}
				l2.Add(c, 10)
				l2.Add(c, 11)
			}, siteCollections45.Stmt()),
			t.ForkAt("equals", func(c *conc.Thread) {
				l1.Equals(c, l2) // iterates both; l2 unsynchronized again
			}, siteCollections52.Stmt()),
		}
		conc.JoinAll(t, workers)
	}
}

// setDriver exercises the containsAll and addAll paths the paper reports for
// HashSet and TreeSet.
func setDriver(mk func(t *conc.Thread, name string) collections.Set) Program {
	return func(t *conc.Thread) {
		s1 := collections.NewSynchronizedSet(t, "s1", mk(t, "raw1"))
		s2 := collections.NewSynchronizedSet(t, "s2", mk(t, "raw2"))
		extra := collections.NewArrayList(t, "extravals")
		for i := 0; i < 4; i++ {
			s1.Add(t, i)
			s2.Add(t, i)
			extra.Add(t, i+20)
		}
		workers := []*conc.Thread{
			t.ForkAt("containsAll", func(c *conc.Thread) {
				s1.ContainsAll(c, s2) // iterates s2 under s1's lock only
			}, siteCollections73.Stmt()),
			t.ForkAt("addAll", func(c *conc.Thread) {
				s1.AddAll(c, s2) // same unsynchronized iteration of s2
			}, siteCollections76.Stmt()),
			t.ForkAt("mutator", func(c *conc.Thread) {
				for i := 0; i < 140; i++ {
					c.Nop(workStmt)
				}
				s2.Add(c, 30)
				s2.Remove(c, 1)
				s2.Add(c, 31)
			}, siteCollections79.Stmt()),
			t.ForkAt("grower", func(c *conc.Thread) {
				for i := 0; i < 100; i++ {
					c.Nop(workStmt)
				}
				s2.AddAll(c, extra)
			}, siteCollections87.Stmt()),
		}
		conc.JoinAll(t, workers)
	}
}

// vectorDriver exercises JDK 1.1 Vector: synchronized mutators racing with
// the unsynchronized Enumeration. Only additions run concurrently with the
// enumeration, so every race is benign (no exceptions) — matching the
// paper's vector row (9 real races, 0 exceptions).
func vectorDriver() Program {
	return func(t *conc.Thread) {
		v1 := collections.NewVector(t, "v1")
		v2 := collections.NewVector(t, "v2")
		for i := 0; i < 4; i++ {
			v1.AddElement(t, i)
			v2.AddElement(t, i*2)
		}
		workers := []*conc.Thread{
			t.ForkAt("enumerator", func(c *conc.Thread) {
				e := v1.Elements(c)
				sum := 0
				for e.HasNext(c) {
					sum += e.Next(c)
				}
				_ = sum
			}, siteCollections111.Stmt()),
			t.ForkAt("adder", func(c *conc.Thread) {
				v1.AddElement(c, 100)
				v1.AddElement(c, 101)
				v1.AddElement(c, 102)
			}, siteCollections119.Stmt()),
			t.ForkAt("reader", func(c *conc.Thread) {
				v1.Contains(c, 2)
				_ = v1.Size(c)
				v1.ElementAt(c, 0)
			}, siteCollections124.Stmt()),
			t.ForkAt("other", func(c *conc.Thread) {
				v2.RemoveElement(c, 2)
				e := v2.Elements(c)
				for e.HasNext(c) {
					e.Next(c)
				}
			}, siteCollections129.Stmt()),
		}
		conc.JoinAll(t, workers)
	}
}

func init() {
	register(Benchmark{
		Name:        "vector",
		Description: "JDK 1.1 Vector: synchronized methods vs unsynchronized Enumeration (real, benign)",
		Paper: PaperRow{SLOC: 709, NormalSec: 0.11, HybridSec: 0.25, RaceFuzzerSec: 0.2,
			HybridRaces: 9, RealRaces: 9, KnownRaces: 9, ExceptionPairs: 0, SimpleExceptions: 0, Probability: 0.94},
		Expect:       Expect{MinReal: 2, MaxReal: -1, MinPotential: 2, MinExceptionPairs: 0, MaxExceptionPairs: 0, MinProbability: 0.5},
		New:          func() Program { return vectorDriver() },
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "arraylist",
		Description: "JDK 1.4.2 ArrayList via Collections.synchronizedList: containsAll/equals iterate without the argument's lock",
		Paper: PaperRow{SLOC: 5866, NormalSec: 0.16, HybridSec: 0.26, RaceFuzzerSec: 0.24,
			HybridRaces: 14, RealRaces: 7, KnownRaces: -1, ExceptionPairs: 7, SimpleExceptions: 0, Probability: 0.55},
		Expect: Expect{MinReal: 2, MaxReal: -1, MinPotential: 3, MinExceptionPairs: 1, MaxExceptionPairs: -1, MinProbability: 0.2},
		New: func() Program {
			return listDriver(func(t *conc.Thread, n string) collections.List { return collections.NewArrayList(t, n) })
		},
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "linkedlist",
		Description: "JDK 1.4.2 LinkedList via Collections.synchronizedList: same inherited containsAll/equals bug",
		Paper: PaperRow{SLOC: 5979, NormalSec: 0.16, HybridSec: 0.26, RaceFuzzerSec: 0.22,
			HybridRaces: 12, RealRaces: 12, KnownRaces: -1, ExceptionPairs: 5, SimpleExceptions: 0, Probability: 0.85},
		Expect: Expect{MinReal: 2, MaxReal: -1, MinPotential: 3, MinExceptionPairs: 1, MaxExceptionPairs: -1, MinProbability: 0.2},
		New: func() Program {
			return listDriver(func(t *conc.Thread, n string) collections.List { return collections.NewLinkedList(t, n) })
		},
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "hashset",
		Description: "JDK 1.4.2 HashSet via Collections.synchronizedSet: containsAll/addAll iterate without the argument's lock",
		Paper: PaperRow{SLOC: 7086, NormalSec: 0.16, HybridSec: 0.26, RaceFuzzerSec: 0.25,
			HybridRaces: 11, RealRaces: 11, KnownRaces: -1, ExceptionPairs: 8, SimpleExceptions: 1, Probability: 0.54},
		Expect: Expect{MinReal: 2, MaxReal: -1, MinPotential: 3, MinExceptionPairs: 1, MaxExceptionPairs: -1, MinProbability: 0.2},
		New: func() Program {
			return setDriver(func(t *conc.Thread, n string) collections.Set { return collections.NewHashSet(t, n) })
		},
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "treeset",
		Description: "JDK 1.4.2 TreeSet via Collections.synchronizedSet: same containsAll/addAll bug over a BST",
		Paper: PaperRow{SLOC: 7532, NormalSec: 0.17, HybridSec: 0.26, RaceFuzzerSec: 0.24,
			HybridRaces: 13, RealRaces: 8, KnownRaces: -1, ExceptionPairs: 8, SimpleExceptions: 1, Probability: 0.41},
		Expect: Expect{MinReal: 2, MaxReal: -1, MinPotential: 3, MinExceptionPairs: 1, MaxExceptionPairs: -1, MinProbability: 0.2},
		New: func() Program {
			return setDriver(func(t *conc.Thread, n string) collections.Set { return collections.NewTreeSet(t, n) })
		},
		Phase1Trials: 6,
	})
}
