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

// ContainsKey reports whether key is mapped.
func (m *HashMap) ContainsKey(t *conc.Thread, key int) bool {
	_, ok := m.Get(t, key)
	return ok
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

// Size returns the number of mappings.
func (m *HashMap) Size(t *conc.Thread) int { return m.size.GetAt(t, siteHashmap98.Stmt()) }

// Clear removes every mapping.
func (m *HashMap) Clear(t *conc.Thread) {
	for b := 0; b < hsBuckets; b++ {
		m.buckets.SetAt(t, siteHashmap103.Stmt(), b, nil)
	}
	m.size.SetAt(t, siteHashmap105.Stmt(), 0)
	m.modCount.AddAt(t, siteHashmap106.Stmt(), 1)
}

// Entry is one key/value snapshot produced by iteration.
type Entry struct{ Key, Val int }

// Entries iterates the map fail-fast, returning entry snapshots; it throws
// ConcurrentModificationException when the map changes underneath it.
func (m *HashMap) Entries(t *conc.Thread) []Entry {
	expected := m.modCount.GetAt(t, siteHashmap115.Stmt())
	var out []Entry
	for b := 0; b < hsBuckets; b++ {
		for e := m.buckets.GetAt(t, siteHashmap118.Stmt(), b); e != nil; e = e.next.GetAt(t, siteHashmap118.Stmt()) {
			if m.modCount.GetAt(t, siteHashmap119.Stmt()) != expected {
				throwCME(t, m.name)
			}
			out = append(out, Entry{Key: e.key, Val: e.val.GetAt(t, siteHashmap122.Stmt())})
		}
	}
	return out
}

// Hashtable models java.util.Hashtable (JDK 1.0): every method synchronized
// on the table's own monitor — the map analogue of Vector.
type Hashtable struct {
	mon   *conc.Mutex
	inner *HashMap
}

// NewHashtable allocates an empty Hashtable.
func NewHashtable(t *conc.Thread, name string) *Hashtable {
	return &Hashtable{
		mon:   conc.NewMutex(t, name+".monitor"),
		inner: NewHashMap(t, name),
	}
}

// Put maps key to val (synchronized).
func (h *Hashtable) Put(t *conc.Thread, key, val int) (int, bool) {
	h.mon.LockAt(t, siteHashmap145.Stmt())
	old, ok := h.inner.Put(t, key, val)
	h.mon.UnlockAt(t, siteHashmap147.Stmt())
	return old, ok
}

// Get returns key's value (synchronized).
func (h *Hashtable) Get(t *conc.Thread, key int) (int, bool) {
	h.mon.LockAt(t, siteHashmap153.Stmt())
	v, ok := h.inner.Get(t, key)
	h.mon.UnlockAt(t, siteHashmap155.Stmt())
	return v, ok
}

// Remove unmaps key (synchronized).
func (h *Hashtable) Remove(t *conc.Thread, key int) (int, bool) {
	h.mon.LockAt(t, siteHashmap161.Stmt())
	v, ok := h.inner.Remove(t, key)
	h.mon.UnlockAt(t, siteHashmap163.Stmt())
	return v, ok
}

// Size returns the mapping count (synchronized).
func (h *Hashtable) Size(t *conc.Thread) int {
	h.mon.LockAt(t, siteHashmap169.Stmt())
	n := h.inner.Size(t)
	h.mon.UnlockAt(t, siteHashmap171.Stmt())
	return n
}

// Entries snapshots the table (synchronized — unlike Vector's Enumeration,
// Hashtable's synchronized methods cover whole-table iteration here).
func (h *Hashtable) Entries(t *conc.Thread) []Entry {
	h.mon.LockAt(t, siteHashmap178.Stmt())
	out := h.inner.Entries(t)
	h.mon.UnlockAt(t, siteHashmap180.Stmt())
	return out
}
