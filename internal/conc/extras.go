package conc

// A higher-level synchronizer built from the monitor primitives, the way
// java.util.concurrent builds on Object monitors. It is fully
// instrumented: its internal state lives in Vars and its blocking in
// monitor waits, so the detectors see — and RaceFuzzer can direct — every
// interleaving inside it.

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
