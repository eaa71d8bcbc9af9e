// Package sched implements the deterministic cooperative scheduler that is
// this reproduction's substitute for the paper's JVM-level thread control
// (see DESIGN.md, "Substitutions"). Model threads run as goroutines, but
// every instrumented operation parks the thread until the scheduler grants
// it; exactly one model thread executes at a time, so a run is a function of
// the program and one RNG seed. That seed-determinism is what makes the
// paper's lightweight replay (§2.2) work: re-running with the same seed
// reproduces the schedule with no event recording.
//
// The scheduler exposes two extension points:
//
//   - Policy decides, at each quiescent point, which enabled thread(s)
//     execute next. The paper's RaceFuzzer algorithm is a Policy
//     (internal/core); uniform random scheduling is the baseline.
//   - Observer receives the event stream (MEM/SND/RCV/LOCK/UNLOCK) used by
//     the hybrid and happens-before race detectors (phase 1), and, when it
//     asks for them, the scheduling decisions and policy actions (the
//     flight recorder). Config.Observers is the scheduler's one probe list.
//
// The grant engine is allocation-free in steady state: exactly one
// goroutine holds the step at a time. The thread that parks decides the
// next step itself (schedule) and hands it over with a send on the
// grantee's own buffered channel, so a thread granted again just keeps
// running on its own stack and no lock guards scheduler state: the send and
// receive are the happens-before edge. A forked thread's goroutine starts
// at its first grant. Per-round scratch (enabled set, View, grant buffer)
// lives on the Scheduler, and whole Scheduler/Thread trees are recycled
// through a sync.Pool across runs (pool.go).
package sched

import (
	"errors"
	"fmt"
	"sort"

	"racefuzzer/internal/event"
	"racefuzzer/internal/lockset"
	"racefuzzer/internal/rng"
)

// ErrIllegalMonitorState is thrown (as a model exception) when a thread
// unlocks, waits on, or notifies a monitor it does not hold.
var ErrIllegalMonitorState = errors.New("IllegalMonitorStateException")

// ErrInterruptedWait is thrown (as a model exception) by a monitor wait that
// was interrupted — java.lang.InterruptedException out of Object.wait.
var ErrInterruptedWait = errors.New("InterruptedException")

// DefaultMaxSteps bounds an execution; runs that exceed it are marked
// Aborted. Generous enough for every model in this repository.
const DefaultMaxSteps = 2_000_000

// lockState is the scheduler-side state of one monitor lock.
type lockState struct {
	name   string
	holder event.ThreadID
	depth  int
}

// Config parameterizes one execution.
type Config struct {
	// Seed fully determines the schedule (together with the program and the
	// policy). Equal seeds replay equal executions.
	Seed int64
	// Policy picks who runs next; nil means uniform random (RandomPolicy).
	Policy Policy
	// Observers receive the event stream and, by method, the scheduling
	// decisions and policy actions (see Observer).
	Observers []Observer
	// MaxSteps bounds the execution; 0 means DefaultMaxSteps.
	MaxSteps int
	// Name labels the execution in reports.
	Name string
	// Prof, when non-nil, records the run's performance timeline: per-grant
	// wait and service latency, enabled-set sizes, decision rounds and
	// phase marks (prof.go). Recording is clock reads plus writes into the
	// trial's preallocated rings on the granting goroutine, so it never
	// perturbs the schedule; nil costs one nil check per probe site.
	Prof *ProfTrial
}

// Exception records a model-level exception that killed a thread (the
// analogue of an uncaught Java exception in the paper's experiments).
type Exception struct {
	Thread event.ThreadID
	Name   string     // thread debug name
	Err    error      // the thrown error (modelPanic) or a wrapped Go panic
	Stmt   event.Stmt // statement of the thread's most recent granted op
	Step   int        // scheduler step at which the thread died
	Stack  string     // Go stack, for accidental (non-model) panics
}

func (e Exception) String() string {
	return fmt.Sprintf("%s(%s) at %s (step %d): %v", e.Thread, e.Name, e.Stmt, e.Step, e.Err)
}

// DeadlockInfo describes a real deadlock: every live thread is disabled.
type DeadlockInfo struct {
	Step    int
	Blocked []BlockedThread
}

// BlockedThread is one participant in a deadlock.
type BlockedThread struct {
	Thread  event.ThreadID
	Name    string
	Pending string // rendered pending op
	// Lock is the lock the thread is blocked on (NoLock when the thread is
	// blocked on a join or an unsignaled wait).
	Lock event.LockID
}

func (d *DeadlockInfo) String() string {
	s := fmt.Sprintf("deadlock at step %d:", d.Step)
	for _, b := range d.Blocked {
		s += fmt.Sprintf(" [%s(%s) blocked on %s]", b.Thread, b.Name, b.Pending)
	}
	return s
}

// Result summarizes one execution.
type Result struct {
	Name         string
	Seed         int64
	Steps        int
	Threads      int // threads created
	Locks        int
	Locations    int
	Exceptions   []Exception
	Deadlock     *DeadlockInfo
	Aborted      bool // hit MaxSteps (or external stop)
	PolicyStalls int  // times the scheduler force-granted past an empty policy decision
	// Rounds counts scheduling rounds (policy consultations, including
	// forced re-decisions). Unlike Steps it advances on empty decisions too,
	// and it is counted whether or not a decision observer is attached.
	Rounds int
	// Switches counts grants whose thread differed from the previous grant:
	// the execution's context switches.
	Switches int
}

// Scheduler drives one execution. Create with Run; a Scheduler must not be
// used across executions by callers (Run recycles them internally through a
// pool once a run has fully terminated).
type Scheduler struct {
	cfg       Config
	rngv      rng.Rand // scheduling stream storage (rng points here)
	workv     rng.Rand // workload stream storage (workRand points here)
	rng       *rng.Rand
	workRand  *rng.Rand
	policy    Policy
	observers []Observer
	deciders  []decisionObserver // observers with OnDecision
	actors    []actionObserver   // observers with OnAction
	maxSteps  int

	// done hands the step back to Run's goroutine: at the end of the run,
	// and after each thread shutdown unwinds. Capacity 1, made once per
	// Scheduler lifetime.
	done chan struct{}

	threads []*Thread
	locks   []lockState
	// locs names the memory locations: one entry per NewLoc, NewLocRange,
	// NewLocIndexed or interrupt-status location, in allocation order, so
	// entries' first locations ascend. nextLoc is the next free location.
	locs    []locEntry
	nextLoc event.MemLoc

	prof   *ProfTrial
	rounds int

	steps       int
	aborted     bool // shutdown: every thread unwinds at its next grant
	lastGranted event.ThreadID
	switches    int

	nextMsg    event.MsgID
	exceptions []Exception
	stalls     int
	deadlock   *DeadlockInfo
	abortedRun bool

	// crash is the first panic out of the policy or an observer (never nil
	// once set: recover turns panic(nil) into a *runtime.PanicNilError);
	// Run re-panics with it once every thread has unwound.
	crash any

	// Per-round scratch, reused so steady-state rounds allocate nothing.
	enabledBuf []event.ThreadID // enabledThreads result
	grantBuf   [1]event.ThreadID
	waitBuf    []*Thread // waitSet result
	aliveBuf   []*Thread // aliveThreads result
	view       View

	// Round state (schedule). batch holds the current decision's grants not
	// yet applied; emptyRounds counts consecutive empty decisions toward
	// the forced-progress grace period; finished marks a terminal state,
	// after which Run's goroutine owns the run.
	batch       []event.ThreadID
	emptyRounds int
	finished    bool
}

// Run executes main as the body of thread T0 under cfg and returns the
// execution's Result. It always returns with every model goroutine
// terminated (no leaks), including on deadlock and step-limit abort.
func Run(main func(*Thread), cfg Config) *Result {
	s := getScheduler()
	defer putScheduler(s)
	s.reset(cfg)
	s.startThread("main", main)
	if s.prof != nil {
		s.prof.mark(PhaseLoopEnter)
	}
	s.handoff(nil)
	<-s.done
	s.finish()
	if s.crash != nil {
		panic(s.crash)
	}
	if s.prof != nil {
		s.prof.mark(PhaseLoopExit)
	}
	res := s.result()
	if s.prof != nil {
		s.prof.Switches = int64(s.switches)
		s.prof.mark(PhaseDone)
	}
	return res
}

// NewLock allocates a fresh monitor lock.
func (s *Scheduler) NewLock(name string) event.LockID {
	id := event.LockID(len(s.locks))
	s.locks = append(s.locks, lockState{name: name, holder: event.NoThread})
	return id
}

// Seed returns the execution's seed (for findings/replay).
func (s *Scheduler) Seed() int64 { return s.cfg.Seed }

// Step returns the current step count.
func (s *Scheduler) Step() int { return s.steps }

// startThread creates (or recycles) the thread with the next index, parked
// at OpBegin; wake launches its goroutine at its first grant. Called by fork
// grants, and for T0 by Run.
func (s *Scheduler) startThread(name string, body func(*Thread)) *Thread {
	idx := len(s.threads)
	var t *Thread
	if idx < cap(s.threads) {
		// Pool reuse: the backing array keeps Thread structs from earlier
		// runs; slots past a grown append can still be nil.
		s.threads = s.threads[:idx+1]
		t = s.threads[idx]
	}
	if t == nil {
		t = &Thread{grant: make(chan struct{}, 1)}
		if idx < len(s.threads) {
			s.threads[idx] = t
		} else {
			s.threads = append(s.threads, t)
		}
	}
	t.id = event.ThreadID(idx)
	t.name = name
	t.s = s
	t.body = body
	t.started = false
	t.pending = Op{Kind: OpBegin}
	t.status = tsParked
	t.held = lockset.Empty()
	t.savedDepth = 0
	t.notified = false
	t.poison = nil
	t.forkResult = nil
	t.exitedFlag = false
	t.panicVal = nil
	t.panicStack = ""
	t.lastStmt = event.NoStmt
	t.parkedNs = 0
	if s.prof != nil {
		t.parkedNs = s.prof.clock()
	}
	t.openGrant = false
	t.interruptedFlag = false
	t.wokenByIntr = false
	t.exitMsg = 0
	t.intrLoc = s.newIntrLoc(idx)
	if s.prof != nil {
		s.prof.threadName(idx, name)
	}
	return t
}

// handoff ends a turn on the goroutine holding the step: it processes t's
// park (or exit, when t is dying; t is nil for Run's first round) and
// schedules the next step, returning true when that step is t's own. A
// panic out of the policy or an observer ends the run instead: catch keeps
// it for Run and hands the step to Run's goroutine.
func (s *Scheduler) handoff(t *Thread) bool {
	defer s.catch()
	if t != nil {
		s.handlePark(t)
	}
	return s.schedule(t)
}

// catch recovers a scheduler-side panic in handoff. Only the first value is
// kept: shutdown's unwinding threads may hit the same faulty observer.
func (s *Scheduler) catch() {
	r := recover()
	if r == nil {
		return
	}
	if s.crash == nil {
		s.crash = r
	}
	s.finished = true
	s.done <- struct{}{}
}

// schedule runs the next step. It is called by the goroutine that holds
// the step as it gives it up: the parking thread (self), a dying one, or
// Run's goroutine for the first round. Only one goroutine runs at a time
// and state changes only at grants, so every round is decided once, by
// this code, from the state the last grant left, and replays
// byte-identically whichever goroutine decides it.
//
// It grants the next still-enabled member of the current decision (s.batch),
// deciding a new round once the batch is spent. It returns true when the
// grantee is self — park then returns into the thread's own stack without
// blocking — and otherwise wakes the grantee directly. On a terminal state
// (Enabled(s) empty or the step limit) it marks the run finished, before
// drawing any randomness, and hands the step back to Run's goroutine,
// which keeps it through the shutdown unwind. Each path ends in exactly one
// send (or goroutine start), and nothing follows it.
func (s *Scheduler) schedule(self *Thread) bool {
	for !s.finished {
		if len(s.batch) > 0 {
			t := s.threads[s.batch[0]]
			s.batch = s.batch[1:]
			if !s.isEnabled(t.id) {
				continue
			}
			s.applyGrant(t)
			if t == self {
				return true
			}
			s.wake(t)
			return false
		}
		enabled := s.enabledThreads()
		if len(enabled) == 0 || s.steps >= s.maxSteps {
			s.finished = true
			break
		}
		s.view.Step = s.steps
		s.view.Enabled = enabled
		dec := s.policy.Step(&s.view, s.rng)
		s.recordDecision(enabled, dec.Grants, false)
		if s.prof != nil {
			s.prof.round(len(enabled), len(dec.Grants))
		}
		// The batch may alias policy scratch or s.grantBuf: both are only
		// rewritten by the next policy.Step, which runs once it is spent.
		s.batch = dec.Grants
		if len(dec.Grants) > 0 {
			s.emptyRounds = 0
			continue
		}
		s.emptyRounds++
		// A policy may legitimately return no grants for a round while it
		// adjusts internal state (e.g. RaceFuzzer postponing a thread), but
		// never indefinitely: force progress after a grace period.
		if s.emptyRounds > 2*len(s.threads)+16 {
			s.stalls++
			s.grantBuf[0] = enabled[s.rng.Intn(len(enabled))]
			s.batch = s.grantBuf[:1]
			s.recordDecision(enabled, s.batch, true)
			if s.prof != nil {
				s.prof.Forced++
			}
			s.emptyRounds = 0
		}
	}
	s.done <- struct{}{}
	return false
}

// finish ends a finished run on Run's goroutine, which holds the step:
// record a deadlock if live threads remain with none enabled, or abort at
// the step limit.
func (s *Scheduler) finish() {
	if len(s.enabledThreads()) == 0 {
		if alive := s.aliveThreads(); len(alive) > 0 {
			s.recordDeadlock(alive)
			s.shutdown()
		}
		return
	}
	s.shutdown()
}

// recordDecision counts one scheduling round and delivers its
// DecisionRecord to the decision observers. The round counter advances
// unconditionally: round numbering must not depend on which observers are
// attached.
func (s *Scheduler) recordDecision(enabled, grants []event.ThreadID, forced bool) {
	round := s.rounds
	s.rounds++
	if len(s.deciders) == 0 {
		return
	}
	d := DecisionRecord{
		Round: round, Step: s.steps, Enabled: enabled, Grants: grants,
		Draws: s.rng.Draws(), Forced: forced,
	}
	for _, o := range s.deciders {
		o.OnDecision(d)
	}
}

// wake hands the step to a granted (or shutdown-unwound) thread: a send on
// its grant channel, or, at its first grant, the start of its goroutine.
// The caller touches nothing afterwards.
func (s *Scheduler) wake(t *Thread) {
	if t.started {
		t.grant <- struct{}{}
		return
	}
	t.started = true
	go t.run()
}

// applyGrant applies thread t's pending op to the synchronization state,
// emits its events, and marks t running. It does not wake t: schedule
// follows with wake, or returns into t's own call stack when t is the
// parking thread.
func (s *Scheduler) applyGrant(t *Thread) {
	tid := t.id
	op := t.pending
	s.steps++
	if tid != s.lastGranted {
		if s.lastGranted != event.NoThread {
			s.switches++
		}
		s.lastGranted = tid
	}
	t.lastStmt = op.Stmt

	switch op.Kind {
	case OpBegin, OpNop:
		// No synchronization effect.

	case OpRead, OpWrite:
		s.emit(event.Event{Kind: event.KindMem, Thread: tid, Stmt: op.Stmt,
			Loc: op.Loc, Access: op.Access, Locks: t.held.Members()})

	case OpLock:
		l := &s.locks[op.Lock]
		if l.holder == tid {
			l.depth++
		} else {
			l.holder = tid
			l.depth = 1
			t.held = t.held.Add(op.Lock)
		}
		s.emit(event.Event{Kind: event.KindLock, Thread: tid, Stmt: op.Stmt, Lock: op.Lock,
			Locks: t.held.Members()})

	case OpUnlock:
		l := &s.locks[op.Lock]
		if l.holder != tid {
			t.poison = fmt.Errorf("%w: unlock of %s(%s) not held by %s",
				ErrIllegalMonitorState, op.Lock, l.name, tid)
			break
		}
		l.depth--
		if l.depth == 0 {
			l.holder = event.NoThread
			t.held = t.held.Remove(op.Lock)
		}
		s.emit(event.Event{Kind: event.KindUnlock, Thread: tid, Stmt: op.Stmt, Lock: op.Lock})

	case OpWaitEnter:
		l := &s.locks[op.Lock]
		if l.holder != tid {
			t.poison = fmt.Errorf("%w: wait on %s(%s) not held by %s",
				ErrIllegalMonitorState, op.Lock, l.name, tid)
			break
		}
		if t.interruptedFlag {
			// Java: wait() throws immediately when entered with the
			// interrupt status set, clearing the status; the monitor stays
			// held while the exception propagates.
			t.interruptedFlag = false
			t.poison = fmt.Errorf("%w: wait entered with interrupt status set", ErrInterruptedWait)
			break
		}
		t.savedDepth = l.depth
		l.holder = event.NoThread
		l.depth = 0
		t.held = t.held.Remove(op.Lock)
		t.notified = false
		s.emit(event.Event{Kind: event.KindUnlock, Thread: tid, Stmt: op.Stmt, Lock: op.Lock})

	case OpWaitResume:
		l := &s.locks[op.Lock]
		l.holder = tid
		l.depth = t.savedDepth
		t.held = t.held.Add(op.Lock)
		t.notified = false
		s.emit(event.Event{Kind: event.KindLock, Thread: tid, Stmt: op.Stmt, Lock: op.Lock,
			Locks: t.held.Members()})
		if t.wokenByIntr {
			// The wait was ended by an interrupt: after reacquiring the
			// monitor, the wait throws and the interrupt status is cleared.
			t.wokenByIntr = false
			t.interruptedFlag = false
			t.poison = fmt.Errorf("%w: wait interrupted", ErrInterruptedWait)
		}

	case OpNotify, OpNotifyAll:
		l := &s.locks[op.Lock]
		if l.holder != tid {
			t.poison = fmt.Errorf("%w: notify on %s(%s) not held by %s",
				ErrIllegalMonitorState, op.Lock, l.name, tid)
			break
		}
		waiters := s.waitSet(op.Lock)
		if len(waiters) > 0 {
			var woken []*Thread
			if op.Kind == OpNotify {
				woken = waiters[:1]
				woken[0] = waiters[s.rng.Intn(len(waiters))]
			} else {
				woken = waiters
			}
			for _, w := range woken {
				w.status = tsNotified
				w.notified = true
				g := s.nextMsgID()
				s.emit(event.Event{Kind: event.KindSnd, Thread: tid, Msg: g})
				s.emit(event.Event{Kind: event.KindRcv, Thread: w.id, Msg: g})
			}
		}

	case OpFork:
		child := s.startThread(op.forkName, op.forkBody)
		t.forkResult = child
		g := s.nextMsgID()
		s.emit(event.Event{Kind: event.KindSnd, Thread: tid, Msg: g})
		s.emit(event.Event{Kind: event.KindRcv, Thread: child.id, Msg: g})

	case OpInterrupt:
		target := s.threads[op.Target]
		// The interrupt is a write to the target's interrupt status.
		s.emit(event.Event{Kind: event.KindMem, Thread: tid, Stmt: op.Stmt,
			Loc: target.intrLoc, Access: event.Write, Locks: t.held.Members()})
		if target.status != tsDead {
			target.interruptedFlag = true
			if target.status == tsWaiting {
				target.status = tsNotified
				target.notified = true
				target.wokenByIntr = true
				g := s.nextMsgID()
				s.emit(event.Event{Kind: event.KindSnd, Thread: tid, Msg: g})
				s.emit(event.Event{Kind: event.KindRcv, Thread: target.id, Msg: g})
			}
		}

	case OpJoin:
		g := s.threads[op.Target].exitMsg
		if g == 0 {
			// Joining a live thread is a scheduling bug: join is only enabled
			// once the target died and registered its exit message.
			panic(fmt.Sprintf("sched: join of live thread %s granted", op.Target))
		}
		s.emit(event.Event{Kind: event.KindRcv, Thread: tid, Msg: g})
	}

	t.status = tsRunning
	if s.prof != nil {
		// Open the grant's latency record; the thread's next park closes it
		// (handlePark). Wait is park->grant; service is grant->next park
		// (the op's effect plus the thread's uninstrumented run to its next
		// yield).
		now := s.prof.clock()
		t.openGrant = true
		t.gKind = op.Kind
		t.gStep = s.steps
		t.gStartNs = now
		t.gWaitNs = now - t.parkedNs
	}
}

// handlePark processes one park (or exit) notification. Runs on the parking
// thread's goroutine.
func (s *Scheduler) handlePark(t *Thread) {
	if s.prof != nil {
		now := s.prof.clock()
		t.parkedNs = now
		if t.openGrant {
			t.openGrant = false
			s.prof.grant(t.gKind, int(t.id), t.gStep, t.gStartNs, t.gWaitNs, now-t.gStartNs)
		}
	}
	if t.exitedFlag {
		s.threadDied(t)
		return
	}
	if t.pending.Kind == OpWaitResume && !t.notified {
		t.status = tsWaiting
	} else if t.pending.Kind == OpWaitResume && t.notified {
		t.status = tsNotified
	} else {
		t.status = tsParked
	}
}

// threadDied finalizes a dead thread: force-release its monitors (HotSpot
// unwinds synchronized blocks on uncaught exceptions; our models pair every
// acquire with a release, so on clean exit this is a no-op), record any
// model exception, and register the exit message joiners will receive. The
// held set is released in ascending lock-ID order — the set is sorted — so
// the unlock event sequence is identical on every replay of the same seed.
func (s *Scheduler) threadDied(t *Thread) {
	t.status = tsDead
	for _, lid := range t.held.Members() {
		l := &s.locks[lid]
		if l.holder == t.id {
			l.holder = event.NoThread
			l.depth = 0
			s.emit(event.Event{Kind: event.KindUnlock, Thread: t.id, Stmt: t.lastStmt, Lock: lid})
		}
	}
	t.held = lockset.Empty()
	if t.panicVal != nil {
		err, _ := asModelError(t.panicVal)
		exc := Exception{
			Thread: t.id, Name: t.name, Err: err, Stmt: t.lastStmt, Step: s.steps,
			Stack: t.panicStack,
		}
		s.exceptions = append(s.exceptions, exc)
		t.panicVal = nil
	}
	g := s.nextMsgID()
	t.exitMsg = g
	s.emit(event.Event{Kind: event.KindSnd, Thread: t.id, Msg: g})
}

func asModelError(v any) (err error, isModel bool) {
	if mp, ok := v.(modelPanic); ok {
		return mp.err, true
	}
	if e, ok := v.(error); ok {
		return fmt.Errorf("model thread panicked: %w", e), false
	}
	return fmt.Errorf("model thread panicked: %v", v), false
}

// waitSet returns the threads waiting on lock l's monitor, in thread order.
// The returned slice is scheduler scratch, valid until the next call.
func (s *Scheduler) waitSet(l event.LockID) []*Thread {
	out := s.waitBuf[:0]
	for _, t := range s.threads {
		if t.status == tsWaiting && t.pending.Kind == OpWaitResume && t.pending.Lock == l {
			out = append(out, t)
		}
	}
	s.waitBuf = out
	return out
}

// isEnabled implements the paper's Enabled(s) membership test for one
// thread: parked and not blocked by a lock, a live join target, or an
// unsignaled wait.
func (s *Scheduler) isEnabled(tid event.ThreadID) bool {
	t := s.threads[tid]
	switch t.status {
	case tsParked:
	case tsNotified:
		l := s.locks[t.pending.Lock]
		return l.holder == event.NoThread
	default:
		return false
	}
	switch t.pending.Kind {
	case OpLock:
		l := s.locks[t.pending.Lock]
		return l.holder == event.NoThread || l.holder == tid
	case OpJoin:
		return s.threads[t.pending.Target].status == tsDead
	default:
		return true
	}
}

// enabledThreads returns Enabled(s) in ascending thread order. The returned
// slice is scheduler scratch, valid until the next scheduling round.
func (s *Scheduler) enabledThreads() []event.ThreadID {
	out := s.enabledBuf[:0]
	for _, t := range s.threads {
		if s.isEnabled(t.id) {
			out = append(out, t.id)
		}
	}
	s.enabledBuf = out
	return out
}

// aliveThreads returns Alive(s). The returned slice is scheduler scratch,
// valid until the next call.
func (s *Scheduler) aliveThreads() []*Thread {
	out := s.aliveBuf[:0]
	for _, t := range s.threads {
		if t.status != tsDead {
			out = append(out, t)
		}
	}
	s.aliveBuf = out
	return out
}

// aliveCount returns |Alive(s)| without touching scratch storage.
func (s *Scheduler) aliveCount() int {
	n := 0
	for _, t := range s.threads {
		if t.status != tsDead {
			n++
		}
	}
	return n
}

func (s *Scheduler) recordDeadlock(alive []*Thread) {
	info := &DeadlockInfo{Step: s.steps}
	for _, t := range alive {
		b := BlockedThread{Thread: t.id, Name: t.name, Pending: t.pending.String(), Lock: event.NoLock}
		switch t.pending.Kind {
		case OpLock, OpWaitResume:
			b.Lock = t.pending.Lock
		}
		info.Blocked = append(info.Blocked, b)
	}
	sort.Slice(info.Blocked, func(i, j int) bool { return info.Blocked[i].Thread < info.Blocked[j].Thread })
	s.deadlock = info
}

// shutdown aborts every live model goroutine so Run never leaks. It wakes
// one thread at a time, in thread order, and waits on done for it to die:
// a thread blocked in yield observes the abort flag when woken, a
// never-started one at the top of run, and unwinds via the abort sentinel;
// its exit hands the step back. Runs on Run's goroutine.
func (s *Scheduler) shutdown() {
	s.aborted = true
	s.abortedRun = true
	for _, t := range s.threads {
		if t.status != tsDead {
			s.wake(t)
			<-s.done
		}
	}
}

func (s *Scheduler) nextMsgID() event.MsgID {
	s.nextMsg++
	return s.nextMsg
}

func (s *Scheduler) emit(e event.Event) {
	e.Step = s.steps
	for _, o := range s.observers {
		o.OnEvent(e)
	}
}

func (s *Scheduler) result() *Result {
	return &Result{
		Name:         s.cfg.Name,
		Seed:         s.cfg.Seed,
		Steps:        s.steps,
		Threads:      len(s.threads),
		Locks:        len(s.locks),
		Locations:    int(s.nextLoc),
		Exceptions:   s.exceptions,
		Deadlock:     s.deadlock,
		Aborted:      s.abortedRun,
		PolicyStalls: s.stalls,
		Rounds:       s.rounds,
		Switches:     s.switches,
	}
}
