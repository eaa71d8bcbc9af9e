package collections

import (
	"racefuzzer/internal/conc"
)

// hsBuckets is the fixed bucket count (power of two).
const hsBuckets = 16

// hsNode is one chained hash entry; next is instrumented.
type hsNode struct {
	key  int
	next *conc.Var[*hsNode]
}

// HashSet models java.util.HashSet (backed by a chained HashMap) with a
// modCount-driven fail-fast iterator.
type HashSet struct {
	name     string
	buckets  *conc.Array[*hsNode]
	size     *conc.IntVar
	modCount *conc.IntVar
	nodeBase string // name + ".entry"; nodes are named on demand
	nodeSeq  int
}

// NewHashSet allocates an empty HashSet.
func NewHashSet(t *conc.Thread, name string) *HashSet {
	return &HashSet{
		name:     name,
		buckets:  conc.NewArray[*hsNode](t, name+".table", hsBuckets),
		size:     conc.NewIntVar(t, name+".size", 0),
		modCount: conc.NewIntVar(t, name+".modCount", 0),
		nodeBase: name + ".entry",
	}
}

func hashOf(v int) int {
	h := v * 0x9e3779b1
	if h < 0 {
		h = -h
	}
	return h & (hsBuckets - 1)
}

// Add inserts v, returning false if already present.
func (s *HashSet) Add(t *conc.Thread, v int) bool {
	b := hashOf(v)
	for e := s.buckets.GetAt(t, siteHashset49.Stmt(), b); e != nil; e = e.next.GetAt(t, siteHashset49.Stmt()) {
		if e.key == v {
			return false
		}
	}
	s.nodeSeq++
	n := &hsNode{key: v, next: conc.NewIndexedVar[*hsNode](t, s.nodeBase, s.nodeSeq, ".next", nil)}
	n.next.SetAt(t, siteHashset56.Stmt(), s.buckets.GetAt(t, siteHashset56.Stmt(), b))
	s.buckets.SetAt(t, siteHashset57.Stmt(), b, n)
	s.size.AddAt(t, siteHashset58.Stmt(), 1)
	s.modCount.AddAt(t, siteHashset59.Stmt(), 1)
	return true
}

// Contains reports membership.
func (s *HashSet) Contains(t *conc.Thread, v int) bool {
	for e := s.buckets.GetAt(t, siteHashset65.Stmt(), hashOf(v)); e != nil; e = e.next.GetAt(t, siteHashset65.Stmt()) {
		if e.key == v {
			return true
		}
	}
	return false
}

// Remove deletes v if present.
func (s *HashSet) Remove(t *conc.Thread, v int) bool {
	b := hashOf(v)
	var prev *hsNode
	for e := s.buckets.GetAt(t, siteHashset77.Stmt(), b); e != nil; e = e.next.GetAt(t, siteHashset77.Stmt()) {
		if e.key == v {
			if prev == nil {
				s.buckets.SetAt(t, siteHashset80.Stmt(), b, e.next.GetAt(t, siteHashset80.Stmt()))
			} else {
				prev.next.SetAt(t, siteHashset82.Stmt(), e.next.GetAt(t, siteHashset82.Stmt()))
			}
			s.size.AddAt(t, siteHashset84.Stmt(), -1)
			s.modCount.AddAt(t, siteHashset85.Stmt(), 1)
			return true
		}
		prev = e
	}
	return false
}

// Iterator returns a fail-fast iterator (java.util.HashMap.HashIterator).
func (s *HashSet) Iterator(t *conc.Thread) Iterator {
	it := &hashSetIter{set: s, bucket: -1, expected: s.modCount.GetAt(t, siteHashset107.Stmt())}
	it.advance(t)
	return it
}

// hashSetIter walks buckets then chains, fail-fast on modCount.
type hashSetIter struct {
	set      *HashSet
	bucket   int
	node     *hsNode
	lastRet  *hsNode
	expected int
}

// advance moves to the next non-empty position starting after the current.
func (it *hashSetIter) advance(t *conc.Thread) {
	if it.node != nil {
		it.node = it.node.next.GetAt(t, siteHashset135.Stmt())
	}
	for it.node == nil && it.bucket < hsBuckets-1 {
		it.bucket++
		it.node = it.set.buckets.GetAt(t, siteHashset139.Stmt(), it.bucket)
	}
}

func (it *hashSetIter) checkComod(t *conc.Thread) {
	if it.set.modCount.GetAt(t, siteHashset144.Stmt()) != it.expected {
		throwCME(t, it.set.name)
	}
}

// HasNext implements Iterator.
func (it *hashSetIter) HasNext(t *conc.Thread) bool { return it.node != nil }

// Next implements Iterator.
func (it *hashSetIter) Next(t *conc.Thread) int {
	it.checkComod(t)
	if it.node == nil {
		throwNSE(t, it.set.name)
	}
	it.lastRet = it.node
	v := it.node.key
	it.advance(t)
	return v
}

// Remove implements Iterator.
func (it *hashSetIter) Remove(t *conc.Thread) {
	if it.lastRet == nil {
		t.Throw(ErrIllegalState)
	}
	it.checkComod(t)
	it.set.Remove(t, it.lastRet.key)
	it.lastRet = nil
	it.expected = it.set.modCount.GetAt(t, siteHashset172.Stmt())
}
