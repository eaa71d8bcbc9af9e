package core

import (
	"fmt"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
)

// The paper notes (§1) that the race-directed scheduler generalizes: "we can
// bias the random scheduler by other potential concurrency problems such as
// potential atomicity violations … or potential deadlocks. The only thing
// that the random scheduler needs to know is a set of statements whose
// simultaneous execution could lead to a concurrency problem." This file
// implements that generalization.

// DeadlockDirectedPolicy actively tries to create lock-order deadlocks: any
// thread about to acquire a lock while already holding one is postponed, so
// that another thread can grab the complementary lock first. Once each of
// two threads holds the lock the other wants, both become disabled and the
// scheduler reports a real deadlock (Result.Deadlock) — the analogue of
// RaceFuzzer's "real race" confirmation for deadlock warnings.
//
// An optional TargetLocks pair focuses the search on a specific suspected
// cycle (the way RaceSet focuses RaceFuzzer); when nil, every nested
// acquisition is postponed.
type DeadlockDirectedPolicy struct {
	// TargetLocks, when non-nil, restricts postponement to acquisitions of
	// these two locks.
	TargetLocks *[2]event.LockID
	// MaxPostponeAge is the livelock-relief bound (0 = DefaultMaxPostponeAge,
	// <0 disables the livelock monitor).
	MaxPostponeAge int

	postponed postponedSet
}

// NewDeadlockDirectedPolicy returns an unfocused deadlock-directed policy.
func NewDeadlockDirectedPolicy() *DeadlockDirectedPolicy {
	return &DeadlockDirectedPolicy{}
}

// Name implements sched.Policy.
func (p *DeadlockDirectedPolicy) Name() string { return "deadlockfuzzer" }

func (p *DeadlockDirectedPolicy) isTargetLock(l event.LockID) bool {
	if p.TargetLocks == nil {
		return true
	}
	return l == p.TargetLocks[0] || l == p.TargetLocks[1]
}

// Step implements sched.Policy.
func (p *DeadlockDirectedPolicy) Step(v *sched.View, r *rng.Rand) sched.Decision {
	for _, tid := range p.postponed.sorted() {
		// Postponed threads that became disabled are already contributing to
		// a forming cycle; leave them alone. Age out long-stuck enabled ones.
		if p.postponed.expired(tid, v.Step, p.MaxPostponeAge) {
			p.postponed.del(tid)
			v.Act(sched.ActionRecord{Kind: sched.ActLivelockBreak, Step: v.Step, Thread: tid,
				Loc: event.NoLoc, Lock: event.NoLock})
		}
	}

	cand := p.postponed.candidates(v.Enabled)
	if len(cand) == 0 {
		keys := p.postponed.sorted()
		enabled := keys[:0]
		for _, tid := range keys {
			if v.IsEnabled(tid) {
				enabled = append(enabled, tid)
			}
		}
		if len(enabled) == 0 {
			return sched.Decision{}
		}
		evicted := enabled[r.Intn(len(enabled))]
		p.postponed.del(evicted)
		v.Act(sched.ActionRecord{Kind: sched.ActResume, Step: v.Step, Thread: evicted,
			Loc: event.NoLoc, Lock: event.NoLock})
		return sched.Decision{}
	}
	t := cand[r.Intn(len(cand))]
	op := v.Op(t)
	if op.Kind == sched.OpLock && p.isTargetLock(op.Lock) && len(v.HeldLocks(t)) > 0 {
		// Nested acquisition: hold it back so a partner can form the cycle.
		p.postponed.add(t, v.Step)
		v.Act(sched.ActionRecord{Kind: sched.ActPostpone, Step: v.Step, Thread: t,
			Loc: event.NoLoc, Lock: op.Lock})
		return sched.Decision{}
	}
	return v.Grant(t)
}

// AtomicityTarget describes a suspected atomicity violation: a thread's
// two-access atomic block (First then Second on the same logical data) and
// the statements that, interleaved between them, break serializability.
// Such triples come from atomicity inference tools (Atomizer et al., cited
// in §1); here they are supplied by the caller.
type AtomicityTarget struct {
	// First and Second delimit the intended-atomic block (program order in
	// one thread).
	First, Second event.Stmt
	// Interferers are statements whose execution between First and Second
	// violates atomicity (they conflict on the block's data).
	Interferers []event.Stmt
}

// interferer reports whether s is one of the target's interferer statements.
func (a AtomicityTarget) interferer(s event.Stmt) bool {
	for _, x := range a.Interferers {
		if x == s {
			return true
		}
	}
	return false
}

// AtomicityViolation is a confirmed violation: an interferer executed
// between the two halves of the atomic block while both conflicting
// accesses touched the same memory location.
type AtomicityViolation struct {
	Target     AtomicityTarget
	Victim     event.ThreadID // the thread inside its atomic block
	Interferer event.ThreadID
	Loc        event.MemLoc
	Step       int
}

func (av AtomicityViolation) String() string {
	return fmt.Sprintf("atomicity violation: %s interleaved %s between %s..%s of %s on %s at step %d",
		av.Interferer, av.Target.Interferers, av.Target.First, av.Target.Second, av.Victim, av.Loc, av.Step)
}

// AtomicityDirectedPolicy drives the scheduler to violate a suspected
// atomic block: when the victim thread is about to execute Second (meaning
// First already ran), it is postponed until an interferer statement is
// pending on the same location in another thread; the interferer is then
// deliberately scheduled first, the violation is recorded, and the victim
// resumes — observing the broken invariant if the warning was real.
type AtomicityDirectedPolicy struct {
	Target AtomicityTarget
	// MaxPostponeAge is the livelock-relief bound (0 = DefaultMaxPostponeAge,
	// <0 disables the livelock monitor).
	MaxPostponeAge int

	postponed  postponedSet
	violations []AtomicityViolation
}

// NewAtomicityDirectedPolicy returns a policy for the given target.
func NewAtomicityDirectedPolicy(target AtomicityTarget) *AtomicityDirectedPolicy {
	return &AtomicityDirectedPolicy{Target: target}
}

// Name implements sched.Policy.
func (p *AtomicityDirectedPolicy) Name() string { return "atomicityfuzzer" }

// Violations returns the confirmed violations.
func (p *AtomicityDirectedPolicy) Violations() []AtomicityViolation { return p.violations }

// Step implements sched.Policy.
func (p *AtomicityDirectedPolicy) Step(v *sched.View, r *rng.Rand) sched.Decision {
	// The eviction below draws from this pre-aging snapshot, aged-out included.
	keys := p.postponed.sorted()
	for _, tid := range keys {
		if p.postponed.expired(tid, v.Step, p.MaxPostponeAge) {
			p.postponed.del(tid)
			v.Act(sched.ActionRecord{Kind: sched.ActLivelockBreak, Step: v.Step, Thread: tid,
				Loc: event.NoLoc, Lock: event.NoLock})
		}
	}

	cand := p.postponed.candidates(v.Enabled)
	if len(cand) == 0 {
		if len(keys) == 0 {
			return sched.Decision{}
		}
		evicted := keys[r.Intn(len(keys))]
		p.postponed.del(evicted)
		v.Act(sched.ActionRecord{Kind: sched.ActResume, Step: v.Step, Thread: evicted,
			Loc: event.NoLoc, Lock: event.NoLock})
		return sched.Decision{}
	}
	t := cand[r.Intn(len(cand))]
	op := v.Op(t)

	if op.IsMem() && op.Stmt == p.Target.Second {
		// Victim is between First and Second: look for a pending interferer
		// on the same location (enabled or already postponed is irrelevant —
		// interferers are never postponed by this policy).
		var hit event.ThreadID = event.NoThread
		for _, tid := range v.Enabled {
			if tid == t {
				continue
			}
			iop := v.Op(tid)
			if iop.IsMem() && p.Target.interferer(iop.Stmt) && iop.Loc == op.Loc &&
				(iop.IsWrite() || op.IsWrite()) {
				hit = tid
				break
			}
		}
		if hit != event.NoThread {
			p.violations = append(p.violations, AtomicityViolation{
				Target: p.Target, Victim: t, Interferer: hit, Loc: op.Loc, Step: v.Step,
			})
			p.postponed.del(t)
			v.Act(sched.ActionRecord{Kind: sched.ActViolation, Step: v.Step, Thread: t,
				Others: []event.ThreadID{hit}, Stmt: p.Target.Second, OtherStmt: v.Op(hit).Stmt,
				Loc: op.Loc, Lock: event.NoLock})
			// Deliberately schedule the interferer inside the block, then
			// let the victim observe the damage.
			return sched.Decision{Grants: []event.ThreadID{hit, t}}
		}
		p.postponed.add(t, v.Step)
		v.Act(sched.ActionRecord{Kind: sched.ActPostpone, Step: v.Step, Thread: t,
			Stmt: op.Stmt, Loc: op.Loc, Lock: event.NoLock})
		return sched.Decision{}
	}

	if op.IsMem() && p.Target.interferer(op.Stmt) {
		// The mirror case (RaceFuzzer's Racing() over the postponed set):
		// a victim is already parked at Second; this candidate interferes
		// with it. Schedule the interferer inside the block, then release
		// the victim.
		for _, tid := range p.postponed.sorted() {
			vop := v.Op(tid)
			if v.IsAlive(tid) && vop.IsMem() && vop.Stmt == p.Target.Second &&
				vop.Loc == op.Loc && (vop.IsWrite() || op.IsWrite()) {
				p.violations = append(p.violations, AtomicityViolation{
					Target: p.Target, Victim: tid, Interferer: t, Loc: op.Loc, Step: v.Step,
				})
				p.postponed.del(tid)
				v.Act(sched.ActionRecord{Kind: sched.ActViolation, Step: v.Step, Thread: tid,
					Others: []event.ThreadID{t}, Stmt: p.Target.Second, OtherStmt: op.Stmt,
					Loc: op.Loc, Lock: event.NoLock})
				return sched.Decision{Grants: []event.ThreadID{t, tid}}
			}
		}
		// No victim is in its block yet: hold the interferer back the way
		// Algorithm 1 postpones both sides of the racing pair, so it is
		// still pending when a victim reaches Second.
		p.postponed.add(t, v.Step)
		v.Act(sched.ActionRecord{Kind: sched.ActPostpone, Step: v.Step, Thread: t,
			Stmt: op.Stmt, Loc: op.Loc, Lock: event.NoLock})
		return sched.Decision{}
	}
	return v.Grant(t)
}
