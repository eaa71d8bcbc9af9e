package conc

import "racefuzzer/internal/event"

// Higher-level synchronizers built from the monitor primitives, the way
// java.util.concurrent builds on Object monitors. Everything is fully
// instrumented: their internal state lives in Vars and their blocking in
// monitor waits, so the detectors see — and RaceFuzzer can direct — every
// interleaving inside them.

// RWLock is a readers–writer lock: any number of readers or one writer.
// Writers are not prioritized (a steady reader stream can starve a writer,
// as with unfair Java read-write locks).
type RWLock struct {
	m       *Mutex
	readers *IntVar
	writer  *Var[bool]
}

// NewRWLock allocates a readers–writer lock.
func NewRWLock(t *Thread, name string) *RWLock {
	return &RWLock{
		m:       NewMutex(t, name+".monitor"),
		readers: NewIntVar(t, name+".readers", 0),
		writer:  NewVar(t, name+".writer", false),
	}
}

// RLock acquires shared (read) access.
func (l *RWLock) RLock(t *Thread) {
	l.m.LockAt(t, siteExtras31.Stmt())
	for l.writer.GetAt(t, siteExtras32.Stmt()) {
		l.m.WaitAt(t, siteExtras33.Stmt())
	}
	l.readers.AddAt(t, siteExtras35.Stmt(), 1)
	l.m.UnlockAt(t, siteExtras36.Stmt())
}

// RUnlock releases shared access.
func (l *RWLock) RUnlock(t *Thread) {
	l.m.LockAt(t, siteExtras41.Stmt())
	if l.readers.AddAt(t, siteExtras42.Stmt(), -1) == 0 {
		l.m.NotifyAllAt(t, siteExtras43.Stmt())
	}
	l.m.UnlockAt(t, siteExtras45.Stmt())
}

// Lock acquires exclusive (write) access.
func (l *RWLock) Lock(t *Thread) {
	l.m.LockAt(t, siteExtras50.Stmt())
	for l.writer.GetAt(t, siteExtras51.Stmt()) || l.readers.GetAt(t, siteExtras51.Stmt()) > 0 {
		l.m.WaitAt(t, siteExtras52.Stmt())
	}
	l.writer.SetAt(t, siteExtras54.Stmt(), true)
	l.m.UnlockAt(t, siteExtras55.Stmt())
}

// Unlock releases exclusive access.
func (l *RWLock) Unlock(t *Thread) {
	l.m.LockAt(t, siteExtras60.Stmt())
	l.writer.SetAt(t, siteExtras61.Stmt(), false)
	l.m.NotifyAllAt(t, siteExtras62.Stmt())
	l.m.UnlockAt(t, siteExtras63.Stmt())
}

// Semaphore is a counting semaphore (java.util.concurrent.Semaphore).
type Semaphore struct {
	m       *Mutex
	permits *IntVar
}

// NewSemaphore allocates a semaphore with the given permits.
func NewSemaphore(t *Thread, name string, permits int) *Semaphore {
	return &Semaphore{
		m:       NewMutex(t, name+".monitor"),
		permits: NewIntVar(t, name+".permits", permits),
	}
}

// Acquire takes one permit, blocking while none are available.
func (s *Semaphore) Acquire(t *Thread) {
	s.m.LockAt(t, siteExtras82.Stmt())
	for s.permits.GetAt(t, siteExtras83.Stmt()) <= 0 {
		s.m.WaitAt(t, siteExtras84.Stmt())
	}
	s.permits.AddAt(t, siteExtras86.Stmt(), -1)
	s.m.UnlockAt(t, siteExtras87.Stmt())
}

// TryAcquire takes a permit if one is available, without blocking.
func (s *Semaphore) TryAcquire(t *Thread) bool {
	s.m.LockAt(t, siteExtras92.Stmt())
	ok := s.permits.GetAt(t, siteExtras93.Stmt()) > 0
	if ok {
		s.permits.AddAt(t, siteExtras95.Stmt(), -1)
	}
	s.m.UnlockAt(t, siteExtras97.Stmt())
	return ok
}

// Release returns one permit, waking a blocked acquirer.
func (s *Semaphore) Release(t *Thread) {
	s.m.LockAt(t, siteExtras103.Stmt())
	s.permits.AddAt(t, siteExtras104.Stmt(), 1)
	s.m.NotifyAt(t, siteExtras105.Stmt())
	s.m.UnlockAt(t, siteExtras106.Stmt())
}

// Available returns the current permit count (racy by nature, like Java's
// availablePermits — for monitoring only).
func (s *Semaphore) Available(t *Thread) int {
	return s.permits.GetAt(t, siteExtras112.Stmt())
}

// BoundedQueue is a fixed-capacity FIFO of ints with blocking Put/Take — the
// ArrayBlockingQueue of the model world, and the producer/consumer substrate
// several benchmark models use.
type BoundedQueue struct {
	m     *Mutex
	buf   *Array[int]
	head  *IntVar
	size  *IntVar
	cap   int
	stmtP event.Stmt
	stmtT event.Stmt
}

// NewBoundedQueue allocates a queue with the given capacity.
func NewBoundedQueue(t *Thread, name string, capacity int) *BoundedQueue {
	return &BoundedQueue{
		m:     NewMutex(t, name+".monitor"),
		buf:   NewArray[int](t, name+".buf", capacity),
		head:  NewIntVar(t, name+".head", 0),
		size:  NewIntVar(t, name+".size", 0),
		cap:   capacity,
		stmtP: event.StmtFor(name + ".Put"),
		stmtT: event.StmtFor(name + ".Take"),
	}
}

// Put appends v, blocking while the queue is full.
func (q *BoundedQueue) Put(t *Thread, v int) {
	q.m.LockAt(t, siteExtras143.Stmt())
	for q.size.GetAt(t, siteExtras144.Stmt()) == q.cap {
		q.m.WaitAt(t, siteExtras145.Stmt())
	}
	h := q.head.GetAt(t, siteExtras147.Stmt())
	n := q.size.GetAt(t, siteExtras148.Stmt())
	q.buf.SetAt(t, q.stmtP, (h+n)%q.cap, v)
	q.size.SetAt(t, siteExtras150.Stmt(), n+1)
	q.m.NotifyAllAt(t, siteExtras151.Stmt())
	q.m.UnlockAt(t, siteExtras152.Stmt())
}

// Take removes and returns the oldest element, blocking while empty.
func (q *BoundedQueue) Take(t *Thread) int {
	q.m.LockAt(t, siteExtras157.Stmt())
	for q.size.GetAt(t, siteExtras158.Stmt()) == 0 {
		q.m.WaitAt(t, siteExtras159.Stmt())
	}
	h := q.head.GetAt(t, siteExtras161.Stmt())
	v := q.buf.GetAt(t, q.stmtT, h)
	q.head.SetAt(t, siteExtras163.Stmt(), (h+1)%q.cap)
	q.size.AddAt(t, siteExtras164.Stmt(), -1)
	q.m.NotifyAllAt(t, siteExtras165.Stmt())
	q.m.UnlockAt(t, siteExtras166.Stmt())
	return v
}

// Size returns the current element count (under the queue's lock).
func (q *BoundedQueue) Size(t *Thread) int {
	q.m.LockAt(t, siteExtras172.Stmt())
	n := q.size.GetAt(t, siteExtras173.Stmt())
	q.m.UnlockAt(t, siteExtras174.Stmt())
	return n
}
