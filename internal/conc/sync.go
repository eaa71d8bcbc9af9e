package conc

import "racefuzzer/internal/event"

// Mutex is a reentrant monitor lock with Java semantics: the same object
// provides mutual exclusion (Lock/Unlock) and a condition wait set
// (Wait/Notify/NotifyAll), like a Java object's monitor.
type Mutex struct {
	id event.LockID
}

// NewMutex allocates a monitor lock.
func NewMutex(t *Thread, name string) *Mutex {
	return &Mutex{id: t.Scheduler().NewLock(name)}
}

// Lock acquires the monitor (reentrant).
func (m *Mutex) Lock(t *Thread) { m.LockAt(t, event.CallerStmt(1)) }

// LockAt is Lock at an explicit statement label.
func (m *Mutex) LockAt(t *Thread, stmt event.Stmt) { t.LockAcquire(m.id, stmt) }

// Unlock releases one level of the monitor. Releasing a monitor the thread
// does not hold throws IllegalMonitorStateException (a model exception).
func (m *Mutex) Unlock(t *Thread) { m.UnlockAt(t, event.CallerStmt(1)) }

// UnlockAt is Unlock at an explicit statement label.
func (m *Mutex) UnlockAt(t *Thread, stmt event.Stmt) { t.LockRelease(m.id, stmt) }

// Sync runs body while holding the monitor — Java's synchronized block. The
// unlock runs even if body throws? No: like Java, an uncaught exception
// unwinds the thread, and the scheduler force-releases monitors of dying
// threads; Sync does not recover model exceptions.
func (m *Mutex) Sync(t *Thread, body func()) {
	t.LockAcquire(m.id, event.CallerStmt(1))
	body()
	t.LockRelease(m.id, event.CallerStmt(1))
}

// Wait performs monitor wait: releases the monitor in full, joins the wait
// set, and reacquires after a Notify/NotifyAll. No spurious wakeups (the
// model is deterministic); no timeout variant.
func (m *Mutex) Wait(t *Thread) { m.WaitAt(t, event.CallerStmt(1)) }

// WaitAt is Wait at an explicit statement label.
func (m *Mutex) WaitAt(t *Thread, stmt event.Stmt) { t.MonitorWait(m.id, stmt) }

// Notify wakes one waiting thread (scheduler-RNG choice), if any.
func (m *Mutex) Notify(t *Thread) { m.NotifyAt(t, event.CallerStmt(1)) }

// NotifyAt is Notify at an explicit statement label.
func (m *Mutex) NotifyAt(t *Thread, stmt event.Stmt) { t.MonitorNotify(m.id, stmt) }

// NotifyAll wakes all waiting threads.
func (m *Mutex) NotifyAll(t *Thread) { m.NotifyAllAt(t, event.CallerStmt(1)) }

// NotifyAllAt is NotifyAll at an explicit statement label.
func (m *Mutex) NotifyAllAt(t *Thread, stmt event.Stmt) { t.MonitorNotifyAll(m.id, stmt) }

// Barrier is a cyclic barrier in the style of the Java Grande kernels:
// the last arriving thread releases the others via NotifyAll. Arrival and
// generation counters are instrumented variables guarded by the barrier's
// monitor, so the barrier itself is race-free by construction.
type Barrier struct {
	m       *Mutex
	parties int
	arrived *IntVar
	gen     *IntVar
}

// NewBarrier allocates a barrier for the given number of parties.
func NewBarrier(t *Thread, name string, parties int) *Barrier {
	return &Barrier{
		m:       NewMutex(t, name+".lock"),
		parties: parties,
		arrived: NewIntVar(t, name+".arrived", 0),
		gen:     NewIntVar(t, name+".gen", 0),
	}
}

// Await blocks until all parties have arrived, then resets for reuse.
func (b *Barrier) Await(t *Thread) {
	b.m.LockAt(t, siteSync77.Stmt())
	gen := b.gen.GetAt(t, siteSync78.Stmt())
	n := b.arrived.AddAt(t, siteSync79.Stmt(), 1)
	if n == b.parties {
		b.arrived.SetAt(t, siteSync81.Stmt(), 0)
		b.gen.SetAt(t, siteSync82.Stmt(), gen+1)
		b.m.NotifyAllAt(t, siteSync83.Stmt())
	} else {
		for b.gen.GetAt(t, siteSync85.Stmt()) == gen {
			b.m.WaitAt(t, siteSync86.Stmt())
		}
	}
	b.m.UnlockAt(t, siteSync89.Stmt())
}

// ForkN forks n children named prefix-i running body(i) and returns their
// handles; JoinAll joins them. Together they express the ubiquitous
// fork-join skeleton of the benchmark programs.
func ForkN(t *Thread, prefix string, n int, body func(t *Thread, i int)) []*Thread {
	kids := make([]*Thread, n)
	for i := 0; i < n; i++ {
		i := i
		kids[i] = t.ForkAt(prefix+"-"+itoa(i), func(c *Thread) { body(c, i) }, siteSync132.Stmt())
	}
	return kids
}

// JoinAll joins every thread in kids.
func JoinAll(t *Thread, kids []*Thread) {
	for _, k := range kids {
		t.JoinAt(k, siteSync140.Stmt())
	}
}
