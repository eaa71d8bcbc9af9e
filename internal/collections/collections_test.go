package collections

import (
	"errors"
	"sort"
	"testing"

	"racefuzzer/internal/conc"
	"racefuzzer/internal/sched"
)

// single runs body as a single-threaded model program and fails the test on
// deadlock or unexpected exceptions.
func single(t *testing.T, body func(mt *conc.Thread)) *sched.Result {
	t.Helper()
	res := sched.Run(body, sched.Config{Seed: 1})
	if res.Deadlock != nil {
		t.Fatalf("deadlock: %v", res.Deadlock)
	}
	return res
}

// noExc asserts the run threw nothing.
func noExc(t *testing.T, res *sched.Result) {
	t.Helper()
	if len(res.Exceptions) != 0 {
		t.Fatalf("unexpected exceptions: %v", res.Exceptions)
	}
}

// toSlice drains c's iterator into a Go slice (still fully instrumented).
func toSlice(t *conc.Thread, c Collection) []int {
	var out []int
	it := c.Iterator(t)
	for it.HasNext(t) {
		out = append(out, it.Next(t))
	}
	return out
}

// mkList constructors for list-generic tests.
var listMakers = map[string]func(*conc.Thread, string) List{
	"arraylist":  func(t *conc.Thread, n string) List { return NewArrayList(t, n) },
	"linkedlist": func(t *conc.Thread, n string) List { return NewLinkedList(t, n) },
}

var setMakers = map[string]func(*conc.Thread, string) Set{
	"hashset": func(t *conc.Thread, n string) Set { return NewHashSet(t, n) },
	"treeset": func(t *conc.Thread, n string) Set { return NewTreeSet(t, n) },
}

func TestListBasics(t *testing.T) {
	for name, mk := range listMakers {
		t.Run(name, func(t *testing.T) {
			res := single(t, func(mt *conc.Thread) {
				l := mk(mt, "l")
				for i := 0; i < 10; i++ {
					if !l.Add(mt, i*i) {
						mt.Throwf("add(%d) = false", i*i)
					}
				}
				for i := 0; i < 10; i++ {
					if !l.Contains(mt, i*i) {
						mt.Throwf("contains(%d) = false", i*i)
					}
				}
				if l.Contains(mt, 999) {
					mt.Throwf("contains(999) = true")
				}
				if got := toSlice(mt, l); len(got) != 10 || got[4] != 16 {
					mt.Throwf("elements = %v, want the 10 squares in order", got)
				}
			})
			noExc(t, res)
		})
	}
}

func TestListIteration(t *testing.T) {
	for name, mk := range listMakers {
		t.Run(name, func(t *testing.T) {
			res := single(t, func(mt *conc.Thread) {
				l := mk(mt, "l")
				want := []int{3, 1, 4, 1, 5, 9, 2, 6}
				for _, v := range want {
					l.Add(mt, v)
				}
				got := toSlice(mt, l)
				if len(got) != len(want) {
					mt.Throwf("iterated %d elements, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						mt.Throwf("order mismatch at %d: %v vs %v", i, got, want)
					}
				}
			})
			noExc(t, res)
		})
	}
}

func TestIteratorRemove(t *testing.T) {
	for name, mk := range listMakers {
		t.Run(name, func(t *testing.T) {
			res := single(t, func(mt *conc.Thread) {
				l := mk(mt, "l")
				for i := 0; i < 8; i++ {
					l.Add(mt, i)
				}
				it := l.Iterator(mt)
				for it.HasNext(mt) {
					if it.Next(mt)%2 == 0 {
						it.Remove(mt)
					}
				}
				left := toSlice(mt, l)
				if len(left) != 4 {
					mt.Throwf("size after removal = %d, want 4", len(left))
				}
				for _, v := range left {
					if v%2 == 0 {
						mt.Throwf("even element %d survived", v)
					}
				}
			})
			noExc(t, res)
		})
	}
}

func TestIteratorFailFastCME(t *testing.T) {
	for name, mk := range listMakers {
		t.Run(name, func(t *testing.T) {
			res := single(t, func(mt *conc.Thread) {
				l := mk(mt, "l")
				l.Add(mt, 1)
				l.Add(mt, 2)
				it := l.Iterator(mt)
				_ = it.Next(mt)
				l.Add(mt, 3) // structural modification invalidates it
				_ = it.Next(mt)
			})
			if len(res.Exceptions) != 1 || !errors.Is(res.Exceptions[0].Err, ErrConcurrentModification) {
				t.Fatalf("exceptions = %v, want CME", res.Exceptions)
			}
		})
	}
}

func TestIteratorPastEndNSE(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		l := NewArrayList(mt, "l")
		it := l.Iterator(mt)
		_ = it.Next(mt)
	})
	if len(res.Exceptions) != 1 || !errors.Is(res.Exceptions[0].Err, ErrNoSuchElement) {
		t.Fatalf("exceptions = %v, want NoSuchElement", res.Exceptions)
	}
}

func TestIteratorRemoveBeforeNextIllegal(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		l := NewLinkedList(mt, "l")
		l.Add(mt, 1)
		l.Iterator(mt).Remove(mt)
	})
	if len(res.Exceptions) != 1 || !errors.Is(res.Exceptions[0].Err, ErrIllegalState) {
		t.Fatalf("exceptions = %v, want IllegalState", res.Exceptions)
	}
}

func TestIndexOutOfBounds(t *testing.T) {
	for name, access := range map[string]func(*conc.Thread){
		"arraylist": func(mt *conc.Thread) {
			l := NewArrayList(mt, "l")
			l.Add(mt, 7)
			l.RemoveAt(mt, 3)
		},
		"vector": func(mt *conc.Thread) {
			v := NewVector(mt, "v")
			v.AddElement(mt, 7)
			v.ElementAt(mt, 3)
		},
	} {
		t.Run(name, func(t *testing.T) {
			res := single(t, access)
			if len(res.Exceptions) != 1 || !errors.Is(res.Exceptions[0].Err, ErrIndexOutOfBounds) {
				t.Fatalf("exceptions = %v, want IndexOutOfBounds", res.Exceptions)
			}
		})
	}
}

func TestSetBasics(t *testing.T) {
	for name, mk := range setMakers {
		t.Run(name, func(t *testing.T) {
			res := single(t, func(mt *conc.Thread) {
				s := mk(mt, "s")
				added := 0
				for _, v := range []int{5, 3, 8, 3, 5, 13, 1} {
					if s.Add(mt, v) {
						added++
					}
				}
				if added != 5 {
					mt.Throwf("added %d, want 5 (duplicates rejected)", added)
				}
				for _, v := range []int{1, 3, 5, 8, 13} {
					if !s.Contains(mt, v) {
						mt.Throwf("contains(%d) = false", v)
					}
				}
				if s.Add(mt, 8) {
					mt.Throwf("re-add(8) returned true")
				}
				if !s.Remove(mt, 8) || s.Contains(mt, 8) {
					mt.Throwf("remove(8) failed")
				}
				if s.Remove(mt, 100) {
					mt.Throwf("remove(100) returned true")
				}
				got := toSlice(mt, s)
				sort.Ints(got)
				want := []int{1, 3, 5, 13}
				if len(got) != len(want) {
					mt.Throwf("iterated %v, want %v", got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						mt.Throwf("iterated %v, want %v", got, want)
					}
				}
			})
			noExc(t, res)
		})
	}
}

func TestTreeSetInOrderIteration(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		s := NewTreeSet(mt, "s")
		for _, v := range []int{50, 20, 80, 10, 30, 70, 90, 25, 35} {
			s.Add(mt, v)
		}
		got := toSlice(mt, s)
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				mt.Throwf("not in order: %v", got)
			}
		}
	})
	noExc(t, res)
}

func TestTreeSetRemoveShapes(t *testing.T) {
	// Exercise all three BST deletion cases: leaf, one child, two children
	// (including root).
	res := single(t, func(mt *conc.Thread) {
		s := NewTreeSet(mt, "s")
		for _, v := range []int{50, 20, 80, 10, 30, 70, 90, 25} {
			s.Add(mt, v)
		}
		for _, v := range []int{10 /*leaf*/, 20 /*one child after 10 gone? two: 25,30*/, 50 /*root two children*/, 90 /*leaf*/} {
			if !s.Remove(mt, v) {
				mt.Throwf("remove(%d) = false", v)
			}
			if s.Contains(mt, v) {
				mt.Throwf("contains(%d) after remove", v)
			}
		}
		got := toSlice(mt, s)
		want := []int{25, 30, 70, 80}
		if len(got) != len(want) {
			mt.Throwf("got %v want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				mt.Throwf("got %v want %v", got, want)
			}
		}
	})
	noExc(t, res)
}

func TestHashSetManyBucketsAndCollisions(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		s := NewHashSet(mt, "s")
		for i := 0; i < 60; i++ {
			s.Add(mt, i)
		}
		if n := len(toSlice(mt, s)); n != 60 {
			mt.Throwf("size = %d", n)
		}
		for i := 0; i < 60; i++ {
			if !s.Contains(mt, i) {
				mt.Throwf("missing %d", i)
			}
		}
		for i := 0; i < 60; i += 2 {
			s.Remove(mt, i)
		}
		if n := len(toSlice(mt, s)); n != 30 {
			mt.Throwf("size after removes = %d", n)
		}
	})
	noExc(t, res)
}

func TestVectorSynchronizedOps(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		v := NewVector(mt, "v")
		for i := 0; i < 10; i++ {
			v.AddElement(mt, i*3)
		}
		if v.Size(mt) != 10 || !v.Contains(mt, 27) || v.Contains(mt, 28) {
			mt.Throwf("vector state wrong")
		}
		if v.ElementAt(mt, 4) != 12 {
			mt.Throwf("elementAt(4) = %d", v.ElementAt(mt, 4))
		}
		v.RemoveElement(mt, 12)
		if v.Size(mt) != 9 || v.Contains(mt, 12) {
			mt.Throwf("removeElement failed")
		}
		e := v.Elements(mt)
		n := 0
		for e.HasNext(mt) {
			e.Next(mt)
			n++
		}
		if n != 9 {
			mt.Throwf("enumeration saw %d elements", n)
		}
	})
	noExc(t, res)
}

func TestAbstractBulkOps(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		l1 := NewArrayList(mt, "l1")
		l2 := NewLinkedList(mt, "l2")
		for _, v := range []int{1, 2, 3, 4, 5} {
			l1.Add(mt, v)
		}
		for _, v := range []int{2, 4} {
			l2.Add(mt, v)
		}
		if !AbstractContainsAll(mt, l1, l2) {
			mt.Throwf("containsAll = false")
		}
		l2.Add(mt, 99)
		if AbstractContainsAll(mt, l1, l2) {
			mt.Throwf("containsAll = true with 99")
		}
		AbstractRemoveAll(mt, l1, l2)
		got := toSlice(mt, l1)
		want := []int{1, 3, 5}
		if len(got) != len(want) {
			mt.Throwf("removeAll left %v", got)
		}
		AbstractAddAll(mt, l1, l2)
		if n := len(toSlice(mt, l1)); n != 6 {
			mt.Throwf("addAll size = %d", n)
		}

		a := NewArrayList(mt, "a")
		b := NewLinkedList(mt, "b")
		for _, v := range []int{7, 8, 9} {
			a.Add(mt, v)
			b.Add(mt, v)
		}
		if !AbstractListEquals(mt, a, b) {
			mt.Throwf("equals = false on equal lists")
		}
		b.Add(mt, 10)
		if AbstractListEquals(mt, a, b) {
			mt.Throwf("equals = true on different lengths")
		}
	})
	noExc(t, res)
}

func TestSynchronizedWrappersSequential(t *testing.T) {
	res := single(t, func(mt *conc.Thread) {
		l := NewSynchronizedList(mt, "sl", NewArrayList(mt, "l"))
		s := NewSynchronizedSet(mt, "ss", NewHashSet(mt, "s"))
		for i := 0; i < 5; i++ {
			l.Add(mt, i)
			s.Add(mt, i)
		}
		if len(toSlice(mt, l)) != 5 || len(toSlice(mt, s)) != 5 {
			mt.Throwf("sizes wrong")
		}
		if !l.ContainsAll(mt, s) || !s.ContainsAll(mt, l) {
			mt.Throwf("containsAll wrong")
		}
		s.Remove(mt, 3)
		if s.Contains(mt, 3) || !l.Contains(mt, 3) {
			mt.Throwf("remove wrong")
		}
		l.RemoveAll(mt, s)
		if got := toSlice(mt, l); len(got) != 1 || got[0] != 3 {
			mt.Throwf("removeAll left %v, want [3]", got)
		}
		if !s.AddAll(mt, l) || !s.Contains(mt, 3) {
			mt.Throwf("addAll wrong")
		}
		other := NewSynchronizedList(mt, "other", NewLinkedList(mt, "o"))
		other.Add(mt, 3)
		if !l.Equals(mt, other) {
			mt.Throwf("equals = false on equal lists")
		}
	})
	noExc(t, res)
}

// TestContainsAllRemoveAllBugReproduces is the paper's §5.3 scenario:
// l1.containsAll(l2) in one thread and l2.removeAll(...) in another, both on
// synchronized wrappers, can throw ConcurrentModificationException or
// NoSuchElementException under some interleaving.
func TestContainsAllRemoveAllBugReproduces(t *testing.T) {
	for name, mk := range listMakers {
		t.Run(name, func(t *testing.T) {
			sawBug := false
			for seed := int64(0); seed < 400 && !sawBug; seed++ {
				prog := func(mt *conc.Thread) {
					l1 := NewSynchronizedList(mt, "l1", mk(mt, "raw1"))
					l2 := NewSynchronizedList(mt, "l2", mk(mt, "raw2"))
					rm := NewArrayList(mt, "rm")
					for i := 0; i < 4; i++ {
						l1.Add(mt, i)
						l2.Add(mt, i)
						rm.Add(mt, i)
					}
					t1 := mt.Fork("containsAll", func(c *conc.Thread) {
						l1.ContainsAll(c, l2)
					})
					t2 := mt.Fork("removeAll", func(c *conc.Thread) {
						l2.RemoveAll(c, rm)
					})
					mt.Join(t1)
					mt.Join(t2)
				}
				res := sched.Run(prog, sched.Config{Seed: seed})
				for _, ex := range res.Exceptions {
					if errors.Is(ex.Err, ErrConcurrentModification) || errors.Is(ex.Err, ErrNoSuchElement) {
						sawBug = true
					}
				}
			}
			if !sawBug {
				t.Fatal("the §5.3 containsAll/removeAll bug never reproduced under random scheduling")
			}
		})
	}
}
