package collections

import (
	"racefuzzer/internal/conc"
)

// hmNode is one chained HashMap entry; value and next are instrumented.
type hmNode struct {
	key  int
	val  *conc.Var[int]
	next *conc.Var[*hmNode]
}

// HashMap models java.util.HashMap (JDK 1.4): an unsynchronized chained
// hash table with size, modCount and fail-fast iteration over entries.
type HashMap struct {
	name     string
	buckets  *conc.Array[*hmNode]
	size     *conc.IntVar
	modCount *conc.IntVar
	nodeBase string // name + ".entry"; entries are named on demand
	nodeSeq  int
}

// NewHashMap allocates an empty HashMap.
func NewHashMap(t *conc.Thread, name string) *HashMap {
	return &HashMap{
		name:     name,
		buckets:  conc.NewArray[*hmNode](t, name+".table", hsBuckets),
		size:     conc.NewIntVar(t, name+".size", 0),
		modCount: conc.NewIntVar(t, name+".modCount", 0),
		nodeBase: name + ".entry",
	}
}

// Put maps key to val, returning the previous value and whether one existed.
func (m *HashMap) Put(t *conc.Thread, key, val int) (int, bool) {
	b := hashOf(key)
	for e := m.buckets.GetAt(t, siteHashmap39.Stmt(), b); e != nil; e = e.next.GetAt(t, siteHashmap39.Stmt()) {
		if e.key == key {
			old := e.val.GetAt(t, siteHashmap41.Stmt())
			e.val.SetAt(t, siteHashmap42.Stmt(), val)
			return old, true
		}
	}
	m.nodeSeq++
	base, seq := m.nodeBase, m.nodeSeq
	n := &hmNode{
		key:  key,
		val:  conc.NewIndexedVar(t, base, seq, ".value", val),
		next: conc.NewIndexedVar[*hmNode](t, base, seq, ".next", nil),
	}
	n.next.SetAt(t, siteHashmap53.Stmt(), m.buckets.GetAt(t, siteHashmap53.Stmt(), b))
	m.buckets.SetAt(t, siteHashmap54.Stmt(), b, n)
	m.size.AddAt(t, siteHashmap55.Stmt(), 1)
	m.modCount.AddAt(t, siteHashmap56.Stmt(), 1)
	return 0, false
}

// Get returns the value mapped to key and whether it exists.
func (m *HashMap) Get(t *conc.Thread, key int) (int, bool) {
	for e := m.buckets.GetAt(t, siteHashmap62.Stmt(), hashOf(key)); e != nil; e = e.next.GetAt(t, siteHashmap62.Stmt()) {
		if e.key == key {
			return e.val.GetAt(t, siteHashmap64.Stmt()), true
		}
	}
	return 0, false
}

// Remove unmaps key, returning the removed value and whether it existed.
func (m *HashMap) Remove(t *conc.Thread, key int) (int, bool) {
	b := hashOf(key)
	var prev *hmNode
	for e := m.buckets.GetAt(t, siteHashmap80.Stmt(), b); e != nil; e = e.next.GetAt(t, siteHashmap80.Stmt()) {
		if e.key == key {
			v := e.val.GetAt(t, siteHashmap82.Stmt())
			if prev == nil {
				m.buckets.SetAt(t, siteHashmap84.Stmt(), b, e.next.GetAt(t, siteHashmap84.Stmt()))
			} else {
				prev.next.SetAt(t, siteHashmap86.Stmt(), e.next.GetAt(t, siteHashmap86.Stmt()))
			}
			m.size.AddAt(t, siteHashmap88.Stmt(), -1)
			m.modCount.AddAt(t, siteHashmap89.Stmt(), 1)
			return v, true
		}
		prev = e
	}
	return 0, false
}
