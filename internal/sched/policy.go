package sched

import (
	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
)

// View is the read-only scheduler state a Policy decides from: the enabled
// set and each enabled thread's pending operation. It corresponds to what
// Algorithm 1 consults — Enabled(s) and NextStmt(s, t), enriched with the
// dynamic memory location the statement will touch (needed by Racing()).
type View struct {
	// Step is the current scheduler step index.
	Step int
	// Enabled is Enabled(s) in ascending thread order.
	Enabled []event.ThreadID
	sched   *Scheduler
}

// Op returns thread t's pending operation. Valid for any live thread, not
// just enabled ones (RaceFuzzer inspects postponed threads too).
func (v *View) Op(t event.ThreadID) Op { return v.sched.threads[t].pending }

// IsEnabled reports whether t is in Enabled(s).
func (v *View) IsEnabled(t event.ThreadID) bool { return v.sched.isEnabled(t) }

// IsAlive reports whether t has not terminated.
func (v *View) IsAlive(t event.ThreadID) bool { return v.sched.threads[t].status != tsDead }

// AliveCount returns |Alive(s)|.
func (v *View) AliveCount() int { return v.sched.aliveCount() }

// Threads returns the number of threads created so far.
func (v *View) Threads() int { return len(v.sched.threads) }

// LockHolder returns the thread holding l, or event.NoThread. Used by the
// deadlock-directed guidance extension.
func (v *View) LockHolder(l event.LockID) event.ThreadID { return v.sched.locks[l].holder }

// HeldLocks returns the locks thread t currently holds, in ascending order.
// The slice is the lock set's own storage, handed out without a copy so a
// policy's per-round query stays allocation-free: treat it as read-only.
func (v *View) HeldLocks(t event.ThreadID) []event.LockID { return v.sched.threads[t].held.Members() }

// LocName returns the debug name of a memory location (for findings).
func (v *View) LocName(loc event.MemLoc) string { return v.sched.LocName(loc) }

// Act reports one policy action (postpone/resume/livelock-break, race or
// violation hit) to the execution's profile and action observers, if any:
// the profile counts it by kind. Policies call it unconditionally; without
// either it is a nil check and a length check. Act fills LocName from Loc
// (unless Loc is NoLoc) for the observers, so policies never build names a
// run does not record. Actions must be emitted at deterministic points only
// — they become part of the replay-compared record.
func (v *View) Act(a ActionRecord) {
	s := v.sched
	if s.prof != nil {
		s.prof.Actions[a.Kind]++
	}
	if len(s.actors) == 0 {
		return
	}
	if a.Loc != event.NoLoc {
		a.LocName = s.LocName(a.Loc)
	}
	for _, o := range s.actors {
		o.OnAction(a)
	}
}

// Decision is a policy's answer for one round: the threads to grant, in
// order. An empty decision is allowed (the policy only adjusted internal
// state, e.g. postponed a thread) but the scheduler force-grants after a
// bounded number of consecutive empty rounds to guarantee progress.
type Decision struct {
	Grants []event.ThreadID
}

// Grant is shorthand for a single-thread decision. It allocates the
// one-element grant slice; policies on the hot path should prefer the
// allocation-free View.Grant.
func Grant(t event.ThreadID) Decision { return Decision{Grants: []event.ThreadID{t}} }

// Grant builds a single-thread decision in the scheduler's reusable grant
// buffer — the allocation-free equivalent of the package-level Grant. The
// returned decision is valid for the current round only: the buffer is
// overwritten at the next scheduling round (the scheduler finishes reading
// it before any policy runs again). Policies that return multi-thread
// batches, or retain decisions, must allocate their own slices.
func (v *View) Grant(t event.ThreadID) Decision {
	v.sched.grantBuf[0] = t
	return Decision{Grants: v.sched.grantBuf[:1]}
}

// Policy chooses which enabled thread(s) execute at each quiescent point.
// Implementations draw randomness exclusively from the provided generator so
// executions stay seed-deterministic.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Step is called once per scheduling round.
	Step(v *View, r *rng.Rand) Decision
}

// RandomPolicy is the paper's "simple random scheduler" baseline: at each
// state, pick a uniformly random enabled thread and execute its next
// statement. Example 2 (§3.2) shows why this misses races whose two sides
// are separated by many statements.
type RandomPolicy struct{}

// NewRandomPolicy returns the uniform random policy.
func NewRandomPolicy() *RandomPolicy { return &RandomPolicy{} }

// Name implements Policy.
func (*RandomPolicy) Name() string { return "random" }

// Step implements Policy.
func (*RandomPolicy) Step(v *View, r *rng.Rand) Decision {
	return v.Grant(v.Enabled[r.Intn(len(v.Enabled))])
}

// RunToBlockPolicy emulates a conventional (JVM/OS-default-like) scheduler:
// it keeps running the current thread until it blocks or dies, switching —
// apart from that — only with a small preemption probability. It is the
// stand-in for the paper's "default scheduler" column (Table 1, column 10):
// long undisturbed runs make racing statements meet almost never.
type RunToBlockPolicy struct {
	// Preempt is the per-step probability of an involuntary switch
	// (0 disables preemption entirely).
	Preempt float64
	current event.ThreadID
	started bool
}

// NewRunToBlockPolicy returns a run-to-block policy with the given
// preemption probability.
func NewRunToBlockPolicy(preempt float64) *RunToBlockPolicy {
	return &RunToBlockPolicy{Preempt: preempt}
}

// Name implements Policy.
func (*RunToBlockPolicy) Name() string { return "run-to-block" }

// Step implements Policy.
func (p *RunToBlockPolicy) Step(v *View, r *rng.Rand) Decision {
	if p.started && p.Preempt > 0 && r.Float64() < p.Preempt {
		p.started = false
	}
	if p.started {
		for _, t := range v.Enabled {
			if t == p.current {
				return v.Grant(t)
			}
		}
	}
	p.current = v.Enabled[r.Intn(len(v.Enabled))]
	p.started = true
	return v.Grant(p.current)
}

// QuantumPolicy emulates a time-sliced OS/JVM scheduler: threads run
// round-robin, each receiving Quantum consecutive operations before the next
// thread's turn. This is the most faithful model-scale stand-in for "just
// run the program normally": every thread makes steady progress and
// interleaving happens only at coarse quantum boundaries, which is why
// ordinary testing misses races whose window is narrower than a quantum
// (Table 1, column 10).
type QuantumPolicy struct {
	// Quantum is the base number of consecutive ops per turn (default 4).
	// Each turn actually lasts Quantum + jitter ops, with a small random
	// jitter, the way real time slices vary — without it, a fixed quantum
	// phase-locks tiny programs into one of a handful of schedules.
	Quantum int
	current event.ThreadID
	used    int
	limit   int
	started bool
}

// NewQuantumPolicy returns a round-robin policy with the given quantum.
func NewQuantumPolicy(quantum int) *QuantumPolicy {
	return &QuantumPolicy{Quantum: quantum}
}

// Name implements Policy.
func (*QuantumPolicy) Name() string { return "quantum" }

// Step implements Policy.
func (p *QuantumPolicy) Step(v *View, r *rng.Rand) Decision {
	if p.started && p.used < p.limit {
		for _, t := range v.Enabled {
			if t == p.current {
				p.used++
				return v.Grant(t)
			}
		}
	}
	// Turn over: next enabled thread after current, round-robin.
	next := v.Enabled[0]
	if p.started {
		for _, t := range v.Enabled {
			if t > p.current {
				next = t
				break
			}
		}
	} else {
		// First turn: start anywhere (seed-dependent, like a real scheduler's
		// arbitrary initial dispatch).
		next = v.Enabled[r.Intn(len(v.Enabled))]
	}
	q := p.Quantum
	if q <= 0 {
		q = 4
	}
	p.current = next
	p.used = 1
	p.limit = q + r.Intn(q) // jittered slice length
	p.started = true
	return v.Grant(next)
}

// SequentialPolicy always runs the lowest-numbered enabled thread: a fully
// deterministic baseline useful in tests (it executes thread bodies in
// program order whenever possible).
type SequentialPolicy struct{}

// Name implements Policy.
func (SequentialPolicy) Name() string { return "sequential" }

// Step implements Policy.
func (SequentialPolicy) Step(v *View, r *rng.Rand) Decision {
	return v.Grant(v.Enabled[0])
}
