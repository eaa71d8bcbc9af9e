package collections

import (
	"racefuzzer/internal/conc"
)

// tsNode is a binary-search-tree node; child pointers are instrumented.
type tsNode struct {
	key   int
	left  *conc.Var[*tsNode]
	right *conc.Var[*tsNode]
}

// TreeSet models java.util.TreeSet: an ordered set backed by a binary search
// tree (unbalanced here — balancing is irrelevant to the races) with size,
// modCount, and a fail-fast in-order iterator.
type TreeSet struct {
	name     string
	root     *conc.Var[*tsNode]
	size     *conc.IntVar
	modCount *conc.IntVar
	nodeBase string // name + ".node"; nodes are named on demand
	nodeSeq  int
}

// NewTreeSet allocates an empty TreeSet.
func NewTreeSet(t *conc.Thread, name string) *TreeSet {
	return &TreeSet{
		name:     name,
		root:     conc.NewVar[*tsNode](t, name+".root", nil),
		size:     conc.NewIntVar(t, name+".size", 0),
		modCount: conc.NewIntVar(t, name+".modCount", 0),
		nodeBase: name + ".node",
	}
}

func (s *TreeSet) newNode(t *conc.Thread, v int) *tsNode {
	s.nodeSeq++
	base, seq := s.nodeBase, s.nodeSeq
	return &tsNode{
		key:   v,
		left:  conc.NewIndexedVar[*tsNode](t, base, seq, ".left", nil),
		right: conc.NewIndexedVar[*tsNode](t, base, seq, ".right", nil),
	}
}

// Add inserts v, returning false if already present.
func (s *TreeSet) Add(t *conc.Thread, v int) bool {
	cur := s.root.Get(t)
	if cur == nil {
		s.root.Set(t, s.newNode(t, v))
		s.size.Add(t, 1)
		s.modCount.Add(t, 1)
		return true
	}
	for {
		switch {
		case v == cur.key:
			return false
		case v < cur.key:
			l := cur.left.Get(t)
			if l == nil {
				cur.left.Set(t, s.newNode(t, v))
				s.size.Add(t, 1)
				s.modCount.Add(t, 1)
				return true
			}
			cur = l
		default:
			r := cur.right.Get(t)
			if r == nil {
				cur.right.Set(t, s.newNode(t, v))
				s.size.Add(t, 1)
				s.modCount.Add(t, 1)
				return true
			}
			cur = r
		}
	}
}

// Contains reports membership.
func (s *TreeSet) Contains(t *conc.Thread, v int) bool {
	cur := s.root.Get(t)
	for cur != nil {
		switch {
		case v == cur.key:
			return true
		case v < cur.key:
			cur = cur.left.Get(t)
		default:
			cur = cur.right.Get(t)
		}
	}
	return false
}

// Remove deletes v if present (standard BST deletion).
func (s *TreeSet) Remove(t *conc.Thread, v int) bool {
	type slot struct {
		get func(*conc.Thread) *tsNode
		set func(*conc.Thread, *tsNode)
	}
	rootSlot := slot{
		get: func(tt *conc.Thread) *tsNode { return s.root.Get(tt) },
		set: func(tt *conc.Thread, n *tsNode) { s.root.Set(tt, n) },
	}
	cur := rootSlot.get(t)
	curSlot := rootSlot
	for cur != nil && cur.key != v {
		if v < cur.key {
			curSlot = slot{get: cur.left.Get, set: cur.left.Set}
			cur = cur.left.Get(t)
		} else {
			curSlot = slot{get: cur.right.Get, set: cur.right.Set}
			cur = cur.right.Get(t)
		}
	}
	if cur == nil {
		return false
	}
	l, r := cur.left.Get(t), cur.right.Get(t)
	switch {
	case l == nil:
		curSlot.set(t, r)
	case r == nil:
		curSlot.set(t, l)
	default:
		// Replace with in-order successor (min of right subtree).
		succSlot := slot{get: cur.right.Get, set: cur.right.Set}
		succ := r
		for {
			sl := succ.left.Get(t)
			if sl == nil {
				break
			}
			succSlot = slot{get: succ.left.Get, set: succ.left.Set}
			succ = sl
		}
		succSlot.set(t, succ.right.Get(t))
		succ.left.Set(t, cur.left.Get(t))
		succ.right.Set(t, cur.right.Get(t))
		curSlot.set(t, succ)
	}
	s.size.Add(t, -1)
	s.modCount.Add(t, 1)
	return true
}

// Size returns the element count.
func (s *TreeSet) Size(t *conc.Thread) int { return s.size.Get(t) }

// Clear empties the set.
func (s *TreeSet) Clear(t *conc.Thread) {
	s.root.Set(t, nil)
	s.size.Set(t, 0)
	s.modCount.Add(t, 1)
}

// Iterator returns a fail-fast in-order iterator.
func (s *TreeSet) Iterator(t *conc.Thread) Iterator {
	it := &treeSetIter{set: s, expected: s.modCount.Get(t)}
	it.pushLefts(t, s.root.Get(t))
	return it
}

// ContainsAll reports whether every element of c is in s (AbstractCollection).
func (s *TreeSet) ContainsAll(t *conc.Thread, c Collection) bool {
	return AbstractContainsAll(t, s, c)
}

// AddAll inserts every element of c.
func (s *TreeSet) AddAll(t *conc.Thread, c Collection) bool { return AbstractAddAll(t, s, c) }

// RemoveAll removes every element of c from s.
func (s *TreeSet) RemoveAll(t *conc.Thread, c Collection) bool { return AbstractRemoveAll(t, s, c) }

// treeSetIter does an explicit-stack in-order walk, fail-fast on modCount.
type treeSetIter struct {
	set      *TreeSet
	stack    []*tsNode
	lastRet  *tsNode
	expected int
}

func (it *treeSetIter) pushLefts(t *conc.Thread, n *tsNode) {
	for n != nil {
		it.stack = append(it.stack, n)
		n = n.left.Get(t)
	}
}

func (it *treeSetIter) checkComod(t *conc.Thread) {
	if it.set.modCount.Get(t) != it.expected {
		throwCME(t, it.set.name)
	}
}

// HasNext implements Iterator.
func (it *treeSetIter) HasNext(t *conc.Thread) bool { return len(it.stack) > 0 }

// Next implements Iterator.
func (it *treeSetIter) Next(t *conc.Thread) int {
	it.checkComod(t)
	if len(it.stack) == 0 {
		throwNSE(t, it.set.name)
	}
	n := it.stack[len(it.stack)-1]
	it.stack = it.stack[:len(it.stack)-1]
	it.pushLefts(t, n.right.Get(t))
	it.lastRet = n
	return n.key
}

// Remove implements Iterator.
func (it *treeSetIter) Remove(t *conc.Thread) {
	if it.lastRet == nil {
		t.Throw(ErrIllegalState)
	}
	it.checkComod(t)
	it.set.Remove(t, it.lastRet.key)
	it.lastRet = nil
	it.expected = it.set.modCount.Get(t)
}
