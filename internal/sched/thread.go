package sched

import (
	"fmt"
	"runtime/debug"

	"racefuzzer/internal/event"
	"racefuzzer/internal/lockset"
	"racefuzzer/internal/rng"
)

// threadStatus is the scheduler-side lifecycle state of a model thread.
type threadStatus int

const (
	// tsRunning: the thread holds the step (it was just granted an op).
	tsRunning threadStatus = iota
	// tsParked: blocked in yield with a pending op, or forked and not yet
	// started (pending OpBegin), available for scheduling subject to
	// enabledness.
	tsParked
	// tsWaiting: parked with a pending OpWaitResume and not yet notified —
	// disabled (Java wait-set membership).
	tsWaiting
	// tsNotified: parked with OpWaitResume and notified — enabled once the
	// monitor lock is free.
	tsNotified
	// tsDead: the thread's goroutine has terminated (normally or via an
	// uncaught model exception).
	tsDead
)

// abortSentinel is panicked inside model threads when the scheduler shuts an
// execution down (step limit, external abort); the thread runner recognizes
// it and does not record it as a model exception.
type abortSentinel struct{}

// modelPanic wraps an error thrown by Throw so the thread runner can
// distinguish deliberate model exceptions from accidental Go panics (both
// are recorded, but with different descriptions).
type modelPanic struct{ err error }

func (m modelPanic) String() string { return m.err.Error() }

// Thread is a model thread: the unit the scheduler grants steps to and the
// handle model programs use to perform instrumented operations. All methods
// must be called from the thread's own body function.
type Thread struct {
	id   event.ThreadID
	name string
	s    *Scheduler

	// grant carries the step to the parked thread: the granter sends, the
	// thread receives in park. Capacity 1, so the granter never blocks; made
	// once per Thread lifetime.
	grant chan struct{}
	// body is the thread's function; its goroutine starts at its first
	// grant (wake), not at the fork.
	body    func(*Thread)
	started bool

	// pending is the op the thread will perform next.
	pending Op

	// Scheduling state. Everything here is touched only by the goroutine
	// holding the step; the grant send and receive order the accesses.
	status     threadStatus
	held       lockset.Set
	savedDepth int  // recursion depth saved across a monitor wait
	notified   bool // woken from the wait set, racing for the lock

	// poison, set during the grant, makes yield panic with the given error:
	// used for model-level illegal states such as unlocking a lock the
	// thread does not hold.
	poison error

	// forkResult is set during an OpFork grant so Fork can return the child
	// handle.
	forkResult *Thread

	// Exit bookkeeping, written by the thread's goroutine before its final
	// park.
	exitedFlag bool
	panicVal   any
	panicStack string

	// exitMsg is the SND message registered when the thread died; joiners
	// receive it. Zero means the thread has not exited (IDs start at 1).
	exitMsg event.MsgID

	// lastStmt is the statement of the thread's most recently granted op,
	// used to attribute exceptions to program points.
	lastStmt event.Stmt

	// Profiling state (only touched when a ProfTrial is attached).
	// parkedNs is the profiler clock at the thread's most recent park; an
	// open grant carries the granted op's latency record from applyGrant to
	// the closing handlePark.
	parkedNs  int64
	openGrant bool
	gKind     OpKind
	gStep     int
	gStartNs  int64
	gWaitNs   int64

	// Interrupt machinery (Java Thread.interrupt semantics). intrLoc is the
	// thread's interrupt-status memory location (accesses to it are
	// instrumented, so interrupt races are detectable).
	intrLoc         event.MemLoc
	interruptedFlag bool
	wokenByIntr     bool
}

// ID returns the thread's identity (0 for the main thread, then fork order).
func (t *Thread) ID() event.ThreadID { return t.id }

// Name returns the thread's debug name.
func (t *Thread) Name() string { return t.name }

// Scheduler returns the owning scheduler, used by the conc package to
// allocate memory locations and locks.
func (t *Thread) Scheduler() *Scheduler { return t.s }

// Rand returns the execution's workload RNG: a deterministic stream split
// from the seed, for model programs that need randomized inputs without
// perturbing scheduling decisions.
func (t *Thread) Rand() *rng.Rand { return t.s.workRand }

// yield publishes op as the thread's next operation and blocks until the
// scheduler grants it. On return the thread owns the step: it performs the
// op's data effect and runs uninstrumented code until the next yield.
func (t *Thread) yield(op Op) {
	if t.s.aborted {
		panic(abortSentinel{})
	}
	t.pending = op
	t.park()
	t.resume()
}

// park hands the step back to the scheduler and blocks until granted again.
// The parking thread schedules the next step itself: if that grants this
// same thread, park returns without any goroutine switch.
func (t *Thread) park() {
	if !t.s.handoff(t) {
		<-t.grant
	}
}

// resume takes a granted step: it unwinds the thread when the grant was
// shutdown's, and throws the model exception the granted op poisoned.
func (t *Thread) resume() {
	if t.s.aborted {
		panic(abortSentinel{})
	}
	if t.poison != nil {
		err := t.poison
		t.poison = nil
		panic(modelPanic{err})
	}
}

// MemRead performs an instrumented read of loc at statement stmt. The caller
// reads the actual Go value only after MemRead returns (the scheduler
// serializes execution, so the read is safe).
func (t *Thread) MemRead(loc event.MemLoc, stmt event.Stmt) {
	t.yield(Op{Kind: OpRead, Stmt: stmt, Loc: loc, Access: event.Read})
}

// MemWrite performs an instrumented write of loc at statement stmt.
func (t *Thread) MemWrite(loc event.MemLoc, stmt event.Stmt) {
	t.yield(Op{Kind: OpWrite, Stmt: stmt, Loc: loc, Access: event.Write})
}

// LockAcquire acquires monitor lock l (reentrant), blocking while another
// thread holds it.
func (t *Thread) LockAcquire(l event.LockID, stmt event.Stmt) {
	t.yield(Op{Kind: OpLock, Stmt: stmt, Lock: l})
}

// LockRelease releases one level of monitor lock l. Releasing a lock the
// thread does not hold throws a model IllegalMonitorState exception.
func (t *Thread) LockRelease(l event.LockID, stmt event.Stmt) {
	t.yield(Op{Kind: OpUnlock, Stmt: stmt, Lock: l})
}

// MonitorWait performs a Java-style wait on l's monitor: releases the lock
// in full, joins the wait set, and — once notified — reacquires the lock at
// the saved depth before returning. Waiting without holding l throws a model
// IllegalMonitorState exception.
func (t *Thread) MonitorWait(l event.LockID, stmt event.Stmt) {
	t.yield(Op{Kind: OpWaitEnter, Stmt: stmt, Lock: l})
	t.yield(Op{Kind: OpWaitResume, Stmt: stmt, Lock: l})
}

// MonitorNotify wakes one thread (chosen by the scheduler's RNG — a recorded
// scheduling decision) from l's wait set, or does nothing if none wait.
func (t *Thread) MonitorNotify(l event.LockID, stmt event.Stmt) {
	t.yield(Op{Kind: OpNotify, Stmt: stmt, Lock: l})
}

// MonitorNotifyAll wakes every thread in l's wait set.
func (t *Thread) MonitorNotifyAll(l event.LockID, stmt event.Stmt) {
	t.yield(Op{Kind: OpNotifyAll, Stmt: stmt, Lock: l})
}

// Fork creates a child thread running body and returns its handle. The
// child starts parked at OpBegin and runs no user code until the scheduler
// grants it, so the scheduler fully controls the interleaving. The
// statement label is the caller's file:line.
func (t *Thread) Fork(name string, body func(*Thread)) *Thread {
	return t.ForkAt(name, body, event.CallerStmt(1))
}

// ForkAt is Fork at an explicit statement label.
func (t *Thread) ForkAt(name string, body func(*Thread), stmt event.Stmt) *Thread {
	t.forkResult = nil
	t.yield(Op{Kind: OpFork, Stmt: stmt, forkBody: body, forkName: name})
	child := t.forkResult
	t.forkResult = nil
	return child
}

// Join blocks until child has terminated.
func (t *Thread) Join(child *Thread) { t.JoinAt(child, event.CallerStmt(1)) }

// JoinAt is Join at an explicit statement label.
func (t *Thread) JoinAt(child *Thread, stmt event.Stmt) {
	t.yield(Op{Kind: OpJoin, Stmt: stmt, Target: child.id})
}

// Nop is an explicit scheduling point with no effect, representing an
// untracked model statement.
func (t *Thread) Nop(stmt event.Stmt) {
	t.yield(Op{Kind: OpNop, Stmt: stmt})
}

// Interrupt sets other's interrupt status (Java Thread.interrupt): if other
// is blocked in a monitor wait it is woken and its wait throws
// InterruptedException after reacquiring the monitor; otherwise the flag is
// simply set and observable via IsInterrupted.
func (t *Thread) Interrupt(other *Thread) { t.InterruptAt(other, event.CallerStmt(1)) }

// InterruptAt is Interrupt at an explicit statement label.
func (t *Thread) InterruptAt(other *Thread, stmt event.Stmt) {
	t.yield(Op{Kind: OpInterrupt, Stmt: stmt, Target: other.id})
}

// IsInterrupted reads the thread's own interrupt status (an instrumented
// read: interrupt-status races are first-class memory races).
func (t *Thread) IsInterrupted() bool { return t.IsInterruptedAt(event.CallerStmt(1)) }

// IsInterruptedAt is IsInterrupted at an explicit statement label.
func (t *Thread) IsInterruptedAt(stmt event.Stmt) bool {
	t.MemRead(t.intrLoc, stmt)
	return t.interruptedFlag
}

// ClearInterrupt clears the thread's own interrupt status (the flag-clearing
// half of Java's Thread.interrupted()).
func (t *Thread) ClearInterrupt() { t.ClearInterruptAt(event.CallerStmt(1)) }

// ClearInterruptAt is ClearInterrupt at an explicit statement label.
func (t *Thread) ClearInterruptAt(stmt event.Stmt) {
	t.MemWrite(t.intrLoc, stmt)
	t.interruptedFlag = false
}

// Throw raises a model exception: the thread dies (its locks are force-
// released, Java-style the monitor would actually stay broken, but force-
// release keeps sibling threads schedulable the way HotSpot unwinds
// synchronized blocks) and the exception is recorded on the Result.
func (t *Thread) Throw(err error) {
	panic(modelPanic{err})
}

// Throwf is Throw with fmt.Errorf formatting.
func (t *Thread) Throwf(format string, args ...any) {
	t.Throw(fmt.Errorf(format, args...))
}

// run is the goroutine body hosting a model thread, started by the grant of
// its OpBegin (or by shutdown, which unwinds it at once). Its deferred exit
// ends in the goroutine's final send: the handoff to whoever runs next.
// After it the goroutine touches nothing, so the pool may reuse the Thread.
func (t *Thread) run() {
	defer func() {
		if r := recover(); r != nil {
			if _, isAbort := r.(abortSentinel); !isAbort {
				t.panicVal = r
				if _, isModel := r.(modelPanic); !isModel {
					// Accidental Go panic: capture this goroutine's stack
					// for the exception report.
					t.panicStack = string(debug.Stack())
				}
			}
		}
		t.exitedFlag = true
		t.s.handoff(t)
	}()
	t.resume()
	if t.body != nil {
		t.body(t)
	}
}
