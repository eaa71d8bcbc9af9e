package collections

import "racefuzzer/internal/conc"

// SynchronizedList models Collections.synchronizedList: every method locks
// the wrapper's mutex around the backing list's method. Two deliberate
// JDK-faithful properties carry the paper's §5.3 bug class:
//
//  1. Iterator returns the BACKING list's iterator and performs NO locking —
//     the JDK documents "Must be manually synchronized by the user".
//  2. Bulk operations (ContainsAll, RemoveAll, Equals) lock only
//     THIS wrapper's mutex and then run the inherited AbstractCollection
//     implementation, which iterates the argument collection c via c's
//     (unsynchronized, fail-fast) iterator. When c is another synchronized
//     wrapper, its modCount is read while mutating threads hold only c's
//     mutex — disjoint locksets, a real race, and randomly resolving it
//     yields ConcurrentModificationException / NoSuchElementException.
type SynchronizedList struct {
	mu    *conc.Mutex
	inner List
}

// NewSynchronizedList wraps inner the way Collections.synchronizedList does.
func NewSynchronizedList(t *conc.Thread, name string, inner List) *SynchronizedList {
	return &SynchronizedList{mu: conc.NewMutex(t, name+".mutex"), inner: inner}
}

// Add appends v under the wrapper lock.
func (s *SynchronizedList) Add(t *conc.Thread, v int) bool {
	s.mu.LockAt(t, siteSynchronized34.Stmt())
	r := s.inner.Add(t, v)
	s.mu.UnlockAt(t, siteSynchronized36.Stmt())
	return r
}

// Contains probes membership under the wrapper lock.
func (s *SynchronizedList) Contains(t *conc.Thread, v int) bool {
	s.mu.LockAt(t, siteSynchronized50.Stmt())
	r := s.inner.Contains(t, v)
	s.mu.UnlockAt(t, siteSynchronized52.Stmt())
	return r
}

// Iterator returns the backing iterator with NO locking (JDK-faithful).
func (s *SynchronizedList) Iterator(t *conc.Thread) Iterator {
	return s.inner.Iterator(t)
}

// ContainsAll locks this wrapper only, then iterates c unsynchronized —
// the exact bug of §5.3.
func (s *SynchronizedList) ContainsAll(t *conc.Thread, c Collection) bool {
	s.mu.LockAt(t, siteSynchronized87.Stmt())
	r := AbstractContainsAll(t, s.inner, c)
	s.mu.UnlockAt(t, siteSynchronized89.Stmt())
	return r
}

// RemoveAll locks this wrapper only; it iterates THIS list (safely, under
// the wrapper lock) but probes c.Contains, which for a wrapped argument
// takes c's own lock briefly — no race on c, but the paper's removeAll role
// is the mutator whose writes race with a concurrent containsAll iteration.
func (s *SynchronizedList) RemoveAll(t *conc.Thread, c Collection) bool {
	s.mu.LockAt(t, siteSynchronized106.Stmt())
	r := AbstractRemoveAll(t, s.inner, c)
	s.mu.UnlockAt(t, siteSynchronized108.Stmt())
	return r
}

// Equals locks this wrapper only, then pairwise-iterates both lists — the
// argument's iterator again runs without the argument's lock.
func (s *SynchronizedList) Equals(t *conc.Thread, c List) bool {
	s.mu.LockAt(t, siteSynchronized115.Stmt())
	r := AbstractListEquals(t, s.inner, c)
	s.mu.UnlockAt(t, siteSynchronized117.Stmt())
	return r
}

// SynchronizedSet is Collections.synchronizedSet with the same structure
// (and the same bulk-operation bug) as SynchronizedList.
type SynchronizedSet struct {
	mu    *conc.Mutex
	inner Set
}

// NewSynchronizedSet wraps inner the way Collections.synchronizedSet does.
func NewSynchronizedSet(t *conc.Thread, name string, inner Set) *SynchronizedSet {
	return &SynchronizedSet{mu: conc.NewMutex(t, name+".mutex"), inner: inner}
}

// Add inserts v under the wrapper lock.
func (s *SynchronizedSet) Add(t *conc.Thread, v int) bool {
	s.mu.LockAt(t, siteSynchronized138.Stmt())
	r := s.inner.Add(t, v)
	s.mu.UnlockAt(t, siteSynchronized140.Stmt())
	return r
}

// Remove deletes v under the wrapper lock.
func (s *SynchronizedSet) Remove(t *conc.Thread, v int) bool {
	s.mu.LockAt(t, siteSynchronized146.Stmt())
	r := s.inner.Remove(t, v)
	s.mu.UnlockAt(t, siteSynchronized148.Stmt())
	return r
}

// Contains probes membership under the wrapper lock.
func (s *SynchronizedSet) Contains(t *conc.Thread, v int) bool {
	s.mu.LockAt(t, siteSynchronized154.Stmt())
	r := s.inner.Contains(t, v)
	s.mu.UnlockAt(t, siteSynchronized156.Stmt())
	return r
}

// Iterator returns the backing iterator with NO locking (JDK-faithful).
func (s *SynchronizedSet) Iterator(t *conc.Thread) Iterator {
	return s.inner.Iterator(t)
}

// ContainsAll locks this wrapper only, then iterates c unsynchronized.
func (s *SynchronizedSet) ContainsAll(t *conc.Thread, c Collection) bool {
	s.mu.LockAt(t, siteSynchronized182.Stmt())
	r := AbstractContainsAll(t, s.inner, c)
	s.mu.UnlockAt(t, siteSynchronized184.Stmt())
	return r
}

// AddAll locks this wrapper only, then iterates c unsynchronized — the
// paper's HashSet/TreeSet addAll bug.
func (s *SynchronizedSet) AddAll(t *conc.Thread, c Collection) bool {
	s.mu.LockAt(t, siteSynchronized191.Stmt())
	r := AbstractAddAll(t, s.inner, c)
	s.mu.UnlockAt(t, siteSynchronized193.Stmt())
	return r
}

// Interface conformance checks.
var (
	_ List = (*ArrayList)(nil)
	_ List = (*LinkedList)(nil)
	_ List = (*SynchronizedList)(nil)
	_ Set  = (*HashSet)(nil)
	_ Set  = (*TreeSet)(nil)
	_ Set  = (*SynchronizedSet)(nil)
)
