package collections

import (
	"racefuzzer/internal/conc"
	"racefuzzer/internal/event"
)

// tsNode is a binary-search-tree node; child pointers are instrumented.
type tsNode struct {
	key   int
	left  *conc.Var[*tsNode]
	right *conc.Var[*tsNode]
}

// TreeSet models java.util.TreeSet: an ordered set on an unbalanced binary search
// tree (balance is irrelevant to the races), size, modCount and a fail-fast iterator.
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
	cur := s.root.GetAt(t, siteTreeset49.Stmt())
	if cur == nil {
		s.root.SetAt(t, siteTreeset51.Stmt(), s.newNode(t, v))
		s.size.AddAt(t, siteTreeset52.Stmt(), 1)
		s.modCount.AddAt(t, siteTreeset53.Stmt(), 1)
		return true
	}
	for {
		switch {
		case v == cur.key:
			return false
		case v < cur.key:
			l := cur.left.GetAt(t, siteTreeset61.Stmt())
			if l == nil {
				cur.left.SetAt(t, siteTreeset63.Stmt(), s.newNode(t, v))
				s.size.AddAt(t, siteTreeset64.Stmt(), 1)
				s.modCount.AddAt(t, siteTreeset65.Stmt(), 1)
				return true
			}
			cur = l
		default:
			r := cur.right.GetAt(t, siteTreeset70.Stmt())
			if r == nil {
				cur.right.SetAt(t, siteTreeset72.Stmt(), s.newNode(t, v))
				s.size.AddAt(t, siteTreeset73.Stmt(), 1)
				s.modCount.AddAt(t, siteTreeset74.Stmt(), 1)
				return true
			}
			cur = r
		}
	}
}

// Contains reports membership.
func (s *TreeSet) Contains(t *conc.Thread, v int) bool {
	cur := s.root.GetAt(t, siteTreeset84.Stmt())
	for cur != nil {
		switch {
		case v == cur.key:
			return true
		case v < cur.key:
			cur = cur.left.GetAt(t, siteTreeset90.Stmt())
		default:
			cur = cur.right.GetAt(t, siteTreeset92.Stmt())
		}
	}
	return false
}

// Remove deletes v if present (standard BST deletion).
func (s *TreeSet) Remove(t *conc.Thread, v int) bool {
	type slot struct {
		get func(*conc.Thread) *tsNode // the root only
		set func(*conc.Thread, *event.Site, *tsNode)
	}
	rootSlot := slot{
		get: func(tt *conc.Thread) *tsNode { return s.root.GetAt(tt, siteTreeset105.Stmt()) },
		set: func(tt *conc.Thread, _ *event.Site, n *tsNode) { s.root.SetAt(tt, siteTreeset106.Stmt(), n) },
	}
	cur := rootSlot.get(t)
	curSlot := rootSlot
	for cur != nil && cur.key != v {
		if v < cur.key {
			curSlot = slot{set: childSet(cur.left)}
			cur = cur.left.GetAt(t, siteTreeset113.Stmt())
		} else {
			curSlot = slot{set: childSet(cur.right)}
			cur = cur.right.GetAt(t, siteTreeset116.Stmt())
		}
	}
	if cur == nil {
		return false
	}
	l, r := cur.left.GetAt(t, siteTreeset122.Stmt()), cur.right.GetAt(t, siteTreeset122.Stmt())
	switch {
	case l == nil:
		curSlot.set(t, &siteTreeset125, r)
	case r == nil:
		curSlot.set(t, &siteTreeset127, l)
	default:
		// Replace with in-order successor (min of right subtree).
		succSlot := slot{set: childSet(cur.right)}
		succ := r
		for {
			sl := succ.left.GetAt(t, siteTreeset133.Stmt())
			if sl == nil {
				break
			}
			succSlot = slot{set: childSet(succ.left)}
			succ = sl
		}
		succSlot.set(t, &siteTreeset140, succ.right.GetAt(t, siteTreeset140.Stmt()))
		succ.left.SetAt(t, siteTreeset141.Stmt(), cur.left.GetAt(t, siteTreeset141.Stmt()))
		succ.right.SetAt(t, siteTreeset142.Stmt(), cur.right.GetAt(t, siteTreeset142.Stmt()))
		curSlot.set(t, &siteTreeset143, succ)
	}
	s.size.AddAt(t, siteTreeset145.Stmt(), -1)
	s.modCount.AddAt(t, siteTreeset146.Stmt(), 1)
	return true
}

// Iterator returns a fail-fast in-order iterator.
func (s *TreeSet) Iterator(t *conc.Thread) Iterator {
	it := &treeSetIter{set: s, expected: s.modCount.GetAt(t, siteTreeset162.Stmt())}
	it.pushLefts(t, s.root.GetAt(t, siteTreeset163.Stmt()))
	return it
}

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
		n = n.left.GetAt(t, siteTreeset189.Stmt())
	}
}

func (it *treeSetIter) checkComod(t *conc.Thread) {
	if it.set.modCount.GetAt(t, siteTreeset194.Stmt()) != it.expected {
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
	it.pushLefts(t, n.right.GetAt(t, siteTreeset210.Stmt()))
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
	it.expected = it.set.modCount.GetAt(t, siteTreeset223.Stmt())
}

// childSet returns the setter of a node's child pointer for Remove's slots.
// The write carries the statement of the call through the slot, as a call
// of the Var's Set method value would; the root's setter keeps its own.
func childSet(v *conc.Var[*tsNode]) func(*conc.Thread, *event.Site, *tsNode) {
	return func(t *conc.Thread, at *event.Site, n *tsNode) { v.SetAt(t, at.Stmt(), n) }
}
