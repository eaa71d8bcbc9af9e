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
	for e := s.buckets.Get(t, b); e != nil; e = e.next.Get(t) {
		if e.key == v {
			return false
		}
	}
	s.nodeSeq++
	n := &hsNode{key: v, next: conc.NewIndexedVar[*hsNode](t, s.nodeBase, s.nodeSeq, ".next", nil)}
	n.next.Set(t, s.buckets.Get(t, b))
	s.buckets.Set(t, b, n)
	s.size.Add(t, 1)
	s.modCount.Add(t, 1)
	return true
}

// Contains reports membership.
func (s *HashSet) Contains(t *conc.Thread, v int) bool {
	for e := s.buckets.Get(t, hashOf(v)); e != nil; e = e.next.Get(t) {
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
	for e := s.buckets.Get(t, b); e != nil; e = e.next.Get(t) {
		if e.key == v {
			if prev == nil {
				s.buckets.Set(t, b, e.next.Get(t))
			} else {
				prev.next.Set(t, e.next.Get(t))
			}
			s.size.Add(t, -1)
			s.modCount.Add(t, 1)
			return true
		}
		prev = e
	}
	return false
}

// Size returns the element count.
func (s *HashSet) Size(t *conc.Thread) int { return s.size.Get(t) }

// Clear empties the set.
func (s *HashSet) Clear(t *conc.Thread) {
	for b := 0; b < hsBuckets; b++ {
		s.buckets.Set(t, b, nil)
	}
	s.size.Set(t, 0)
	s.modCount.Add(t, 1)
}

// Iterator returns a fail-fast iterator (java.util.HashMap.HashIterator).
func (s *HashSet) Iterator(t *conc.Thread) Iterator {
	it := &hashSetIter{set: s, bucket: -1, expected: s.modCount.Get(t)}
	it.advance(t)
	return it
}

// ContainsAll reports whether every element of c is in s (AbstractCollection).
func (s *HashSet) ContainsAll(t *conc.Thread, c Collection) bool {
	return AbstractContainsAll(t, s, c)
}

// AddAll inserts every element of c.
func (s *HashSet) AddAll(t *conc.Thread, c Collection) bool { return AbstractAddAll(t, s, c) }

// RemoveAll removes every element of c from s.
func (s *HashSet) RemoveAll(t *conc.Thread, c Collection) bool { return AbstractRemoveAll(t, s, c) }

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
		it.node = it.node.next.Get(t)
	}
	for it.node == nil && it.bucket < hsBuckets-1 {
		it.bucket++
		it.node = it.set.buckets.Get(t, it.bucket)
	}
}

func (it *hashSetIter) checkComod(t *conc.Thread) {
	if it.set.modCount.Get(t) != it.expected {
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
	it.expected = it.set.modCount.Get(t)
}
