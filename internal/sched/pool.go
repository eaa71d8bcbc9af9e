package sched

import (
	"sync"

	"racefuzzer/internal/event"
	"racefuzzer/internal/lockset"
)

// Trial-state pooling. Fuzzing campaigns run millions of short executions;
// building a Scheduler, its Thread structs, lock tables and scratch buffers
// fresh each time dominates the allocation profile. Run instead draws whole
// Scheduler trees from a sync.Pool: reset re-arms one for a new execution
// reusing every capacity it accumulated, release scrubs the references that
// must not leak between runs (closures, panic values, per-run config) before
// the tree goes back in the pool.
//
// Reuse is safe because a Scheduler leaves Run fully quiescent: every model
// goroutine has terminated, and a dying goroutine touches no Thread or
// Scheduler state after its final send (the handoff that ends its run
// schedules the next step and wakes its grantee, or Run's goroutine, last).
// The grant and done channels are empty between runs: every send has been
// received.

// defaultPolicy is the shared stateless fallback for Config.Policy == nil.
var defaultPolicy = &RandomPolicy{}

var schedulerPool = sync.Pool{
	New: func() any {
		return &Scheduler{done: make(chan struct{}, 1)}
	},
}

func getScheduler() *Scheduler { return schedulerPool.Get().(*Scheduler) }

func putScheduler(s *Scheduler) {
	s.release()
	schedulerPool.Put(s)
}

// reset re-arms a pooled (or fresh) Scheduler for one execution under cfg.
// Everything that escapes into the Result (exceptions, deadlock info) is set
// to nil rather than truncated: those slices are owned by the caller of the
// previous run.
func (s *Scheduler) reset(cfg Config) {
	s.cfg = cfg
	s.rngv.Reset(cfg.Seed)
	s.rng = &s.rngv
	s.rng.SplitInto(&s.workv)
	s.workRand = &s.workv
	s.policy = cfg.Policy
	if s.policy == nil {
		s.policy = defaultPolicy
	}
	s.maxSteps = cfg.MaxSteps
	if s.maxSteps <= 0 {
		s.maxSteps = DefaultMaxSteps
	}
	s.observers = append(s.observers[:0], cfg.Observers...)
	s.deciders, s.actors = s.deciders[:0], s.actors[:0]
	for _, o := range cfg.Observers {
		if d, ok := o.(decisionObserver); ok {
			s.deciders = append(s.deciders, d)
		}
		if a, ok := o.(actionObserver); ok {
			s.actors = append(s.actors, a)
		}
	}
	s.prof = cfg.Prof

	s.threads = s.threads[:0]
	s.locks = s.locks[:0]
	s.locs = s.locs[:0]
	s.nextLoc = 0

	s.rounds = 0
	s.steps = 0
	s.aborted = false
	s.lastGranted = event.NoThread
	s.switches = 0
	s.nextMsg = 0
	s.exceptions = nil
	s.stalls = 0
	s.deadlock = nil
	s.abortedRun = false
	s.crash = nil

	s.view = View{sched: s}
	s.batch = nil
	s.emptyRounds = 0
	s.finished = false
}

// release scrubs references a pooled Scheduler must not carry between runs.
// Capacities (thread structs, lock tables, scratch buffers) are kept — they
// are the point of pooling.
func (s *Scheduler) release() {
	s.cfg = Config{}
	s.policy = nil
	s.observers, s.deciders, s.actors = s.observers[:0], s.deciders[:0], s.actors[:0]
	s.prof = nil
	s.exceptions = nil
	s.deadlock = nil
	s.crash = nil
	s.batch = nil // may alias policy scratch
	s.view = View{}
	// Scrub the whole backing array, not just the last run's prefix: threads
	// beyond len carry state from an even earlier, longer run.
	all := s.threads[:cap(s.threads)]
	for _, t := range all {
		if t == nil {
			continue
		}
		t.body = nil
		t.pending = Op{} // drops fork-body closures
		t.poison = nil
		t.forkResult = nil
		t.panicVal = nil
		t.panicStack = ""
		t.held = lockset.Empty()
	}
}
