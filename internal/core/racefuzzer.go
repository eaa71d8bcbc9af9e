// Package core implements the paper's primary contribution: the RaceFuzzer
// algorithm (Algorithms 1 and 2) and the two-phase active-testing pipeline
// around it — phase 1 computes potentially racing statement pairs with the
// hybrid detector; phase 2 runs the program under a race-directed random
// scheduler for each pair, creating real races with high probability,
// resolving them randomly to expose errors, and classifying real races from
// false warnings with no manual inspection.
//
// The package also contains the baselines the paper compares against
// (simple random scheduling, a run-to-block "default scheduler" stand-in,
// RAPOS) and the generalized active-testing guidances sketched in §1
// (deadlock-directed and atomicity-violation-directed scheduling).
package core

import (
	"fmt"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
)

// DefaultMaxPostponeAge is the default bound (in scheduler steps) on how
// long a thread may sit in the postponed set. It realizes §4's livelock
// monitor — "periodically removes those threads from the postponed set that
// are waiting for a long time" — with deterministic step counting instead of
// wall-clock timers, preserving seed replay.
const DefaultMaxPostponeAge = 5000

// RealRace is a race condition RaceFuzzer actually created: two threads
// were simultaneously about to execute statements of the target pair on the
// same dynamic memory location, at least one writing. By construction there
// are no false positives (§3: "no false warnings").
type RealRace struct {
	// Target is the RaceSet (potential pair from phase 1) being tested.
	Target event.StmtPair
	// Pair is the pair of statements that actually raced (its statements are
	// drawn from Target; both may be the same statement).
	Pair event.StmtPair
	// Loc is the dynamic memory location both threads were about to touch.
	Loc event.MemLoc
	// LocName is Loc's debug name.
	LocName string
	// Candidate is the thread whose arrival completed the race; Postponed
	// are the parked threads it raced with (all of Racing(s, t, postponed)).
	Candidate event.ThreadID
	Postponed []event.ThreadID
	// Step is the scheduler step at which the race was created.
	Step int
	// CandidateFirst records the random resolution: true if the arriving
	// thread executed first, false if the postponed side went first.
	CandidateFirst bool
}

func (r RealRace) String() string {
	order := "postponed-first"
	if r.CandidateFirst {
		order = "candidate-first"
	}
	return fmt.Sprintf("real race %s on %s(%s) between %s and %v at step %d, resolved %s",
		r.Pair, r.Loc, r.LocName, r.Candidate, r.Postponed, r.Step, order)
}

// ResolutionMode selects how a created race is resolved. The paper's
// algorithm flips a fair coin (ResolveRandom); the deterministic modes exist
// for the ablation study in DESIGN.md — fixing the order halves the explored
// outcomes and can hide exactly the erroneous order.
type ResolutionMode int

const (
	// ResolveRandom is Algorithm 1 lines 10–19: a fair coin.
	ResolveRandom ResolutionMode = iota
	// ResolveCandidateFirst always executes the arriving thread first.
	ResolveCandidateFirst
	// ResolvePostponedFirst always executes the postponed side first.
	ResolvePostponedFirst
)

// RaceFuzzerPolicy is Algorithm 1: a scheduling policy that picks random
// enabled threads but postpones any thread whose next statement is in the
// target pair until another thread arrives at the pair with a genuinely
// conflicting access, then reports the real race and resolves it randomly.
type RaceFuzzerPolicy struct {
	// Target is the potentially racing statement pair (the RaceSet).
	Target event.StmtPair
	// Targets optionally widens the RaceSet to several pairs at once (their
	// union of statements): one campaign can then confirm many phase-1
	// warnings, at the cost of more postponement traffic per run. When
	// non-empty, Target is ignored.
	Targets []event.StmtPair
	// MaxPostponeAge bounds postponement (steps); <0 disables the livelock
	// monitor, 0 means DefaultMaxPostponeAge.
	MaxPostponeAge int
	// Resolution selects the race-resolution strategy (ablation knob;
	// the zero value is the paper's random resolution).
	Resolution ResolutionMode

	postponed postponedSet // thread → step at which it was postponed
	// justReleased marks threads evicted from postponed (line 26 or the
	// livelock monitor): their next selection executes unconditionally —
	// evicting without running would just re-postpone them forever, which is
	// why the paper's implementation pairs eviction with progress (§4).
	justReleased []bool           // indexed by ThreadID
	racing       []event.ThreadID // Racing(s, t, postponed) scratch, reused
	races        []RealRace
	released     int // threads released by the postponed==enabled rule (line 26)
	aged         int // threads released by the livelock monitor
	postpones    int // threads entering the postponed set (lines 14 and 21)
	tracked      int // executed target-statement accesses (RaceFuzzer's tracked work)
	steps        int // scheduling decisions taken
}

// NewRaceFuzzerPolicy returns a policy targeting pair.
func NewRaceFuzzerPolicy(pair event.StmtPair) *RaceFuzzerPolicy {
	return &RaceFuzzerPolicy{Target: pair}
}

// NewRaceFuzzerSetPolicy returns a policy whose RaceSet is the union of the
// given pairs.
func NewRaceFuzzerSetPolicy(pairs []event.StmtPair) *RaceFuzzerPolicy {
	return &RaceFuzzerPolicy{Targets: pairs}
}

// inRaceSet reports whether s is a statement of the (single or multi) target.
func (p *RaceFuzzerPolicy) inRaceSet(s event.Stmt) bool {
	if len(p.Targets) > 0 {
		for _, tg := range p.Targets {
			if tg.Contains(s) {
				return true
			}
		}
		return false
	}
	return p.Target.Contains(s)
}

// targetOf returns a pair from the RaceSet containing both statements, for
// attribution of a created race (falls back to the raw pair: a race between
// statements of different warnings is still a real race).
func (p *RaceFuzzerPolicy) targetOf(a, b event.Stmt) event.StmtPair {
	if len(p.Targets) == 0 {
		return p.Target
	}
	for _, tg := range p.Targets {
		if tg.Contains(a) && tg.Contains(b) {
			return tg
		}
	}
	return event.MakeStmtPair(a, b)
}

// Name implements sched.Policy.
func (p *RaceFuzzerPolicy) Name() string { return "racefuzzer" }

// Races returns the real races created during the run.
func (p *RaceFuzzerPolicy) Races() []RealRace { return p.races }

// RaceCreated reports whether at least one real race was created.
func (p *RaceFuzzerPolicy) RaceCreated() bool { return len(p.races) > 0 }

// Stats returns counters for the two relief valves (line-26 releases and
// livelock-monitor releases), used by ablation benchmarks.
func (p *RaceFuzzerPolicy) Stats() (released, aged int) { return p.released, p.aged }

// Tracked returns the number of target-statement encounters — the accesses
// RaceFuzzer actually had to reason about. The paper's low-overhead claim
// (§4) is that this is tiny compared to the total memory accesses the hybrid
// detector must track; the harness reports both side by side.
func (p *RaceFuzzerPolicy) Tracked() int { return p.tracked }

// postponedSet is the postponed set of the directed policies: a
// ThreadID-indexed table of postpone steps (-1 = absent) plus reused scratch
// buffers. Index order is ascending thread order — the order the policies
// got by sorting a map's keys — so every random draw over it is unchanged.
type postponedSet struct {
	at   []int
	keys []event.ThreadID // returned by sorted
	cand []event.ThreadID // returned by candidates
}

func (s *postponedSet) has(t event.ThreadID) bool { return int(t) < len(s.at) && s.at[t] >= 0 }

func (s *postponedSet) add(t event.ThreadID, step int) {
	for int(t) >= len(s.at) {
		s.at = append(s.at, -1)
	}
	s.at[t] = step
}

func (s *postponedSet) del(t event.ThreadID) {
	if s.has(t) {
		s.at[t] = -1
	}
}

// candidates returns enabled minus the set, in scratch the next call reuses.
func (s *postponedSet) candidates(enabled []event.ThreadID) []event.ThreadID {
	s.cand = s.cand[:0]
	for _, tid := range enabled {
		if !s.has(tid) {
			s.cand = append(s.cand, tid)
		}
	}
	return s.cand
}

// sorted returns the members in ascending thread order in a scratch buffer
// that the next call overwrites; deleting members does not disturb it.
func (s *postponedSet) sorted() []event.ThreadID {
	s.keys = s.keys[:0]
	for tid, step := range s.at {
		if step >= 0 {
			s.keys = append(s.keys, event.ThreadID(tid))
		}
	}
	return s.keys
}

// expired is the livelock monitor's test, shared by the directed policies:
// member t has sat in the set longer than maxAge steps at step. maxAge is a
// MaxPostponeAge setting: 0 means DefaultMaxPostponeAge, and a negative
// value turns the monitor off.
func (s *postponedSet) expired(t event.ThreadID, step, maxAge int) bool {
	if maxAge == 0 {
		maxAge = DefaultMaxPostponeAge
	}
	return maxAge > 0 && step-s.at[t] > maxAge
}

// release evicts tid from the postponed set; its next selection runs.
func (p *RaceFuzzerPolicy) release(tid event.ThreadID) {
	p.postponed.del(tid)
	for int(tid) >= len(p.justReleased) {
		p.justReleased = append(p.justReleased, false)
	}
	p.justReleased[tid] = true
}

// Step implements sched.Policy; it is one iteration of Algorithm 1's loop.
func (p *RaceFuzzerPolicy) Step(v *sched.View, r *rng.Rand) sched.Decision {
	for _, tid := range p.postponed.sorted() {
		if p.postponed.expired(tid, v.Step, p.MaxPostponeAge) {
			p.release(tid)
			p.aged++
			v.Act(sched.ActionRecord{Kind: sched.ActLivelockBreak, Step: v.Step, Thread: tid,
				Loc: event.NoLoc, Lock: event.NoLock})
		}
	}

	// t := a random thread in Enabled(s) \ postponed   (line 5)
	cand := p.postponed.candidates(v.Enabled)
	if len(cand) == 0 {
		// postponed ⊇ Enabled(s): remove a random element (lines 26–28).
		keys := p.postponed.sorted()
		if len(keys) == 0 {
			return sched.Decision{} // no live threads to manage; let the scheduler proceed
		}
		evicted := keys[r.Intn(len(keys))]
		p.release(evicted)
		p.released++
		v.Act(sched.ActionRecord{Kind: sched.ActResume, Step: v.Step, Thread: evicted,
			Loc: event.NoLoc, Lock: event.NoLock})
		return sched.Decision{}
	}
	t := cand[r.Intn(len(cand))]
	op := v.Op(t)

	p.steps++
	if int(t) < len(p.justReleased) && p.justReleased[t] {
		// An evicted thread executes its pending statement unconditionally.
		p.justReleased[t] = false
		if op.IsMem() && p.inRaceSet(op.Stmt) {
			p.tracked++
		}
		return v.Grant(t)
	}
	// if NextStmt(s, t) ∈ RaceSet   (line 6)
	if op.IsMem() && p.inRaceSet(op.Stmt) {
		// R := Racing(s, t, postponed)   (line 7, Algorithm 2)
		races := p.racing[:0]
		for _, tid := range p.postponed.sorted() {
			if v.IsAlive(tid) && v.Op(tid).ConflictsWith(op) {
				races = append(races, tid)
			}
		}
		p.racing = races
		if len(races) > 0 {
			// Actual race detected (lines 8–9); resolve randomly (10–19).
			// The raced statement pair is (op.Stmt, first postponed stmt) —
			// all members of R access the same location, and their statements
			// are in Target by the postponement invariant. The finding and
			// the flight record share one owned copy of R; the decision may
			// return the scratch itself (read before the next Step).
			raced := event.MakeStmtPair(op.Stmt, v.Op(races[0]).Stmt)
			owned := append([]event.ThreadID(nil), races...)
			rec := RealRace{
				Target: p.targetOf(op.Stmt, v.Op(races[0]).Stmt), Pair: raced, Loc: op.Loc,
				LocName: v.LocName(op.Loc), Candidate: t, Postponed: owned, Step: v.Step,
			}
			candidateFirst := r.Bool() // line 11: the coin is always drawn,
			// keeping the random stream aligned across resolution modes.
			switch p.Resolution {
			case ResolveCandidateFirst:
				candidateFirst = true
			case ResolvePostponedFirst:
				candidateFirst = false
			}
			v.Act(sched.ActionRecord{
				Kind: sched.ActRace, Step: v.Step, Thread: t, Others: owned,
				Stmt: op.Stmt, OtherStmt: v.Op(races[0]).Stmt,
				Loc: op.Loc, Lock: event.NoLock,
				CandidateFirst: candidateFirst,
			})
			rec.CandidateFirst = candidateFirst
			p.races = append(p.races, rec)
			if candidateFirst {
				p.tracked++
				return v.Grant(t) // line 12
			}
			p.postponed.add(t, v.Step) // line 14
			p.postpones++
			v.Act(sched.ActionRecord{Kind: sched.ActPostpone, Step: v.Step, Thread: t,
				Stmt: op.Stmt, Loc: op.Loc, Lock: event.NoLock})
			for _, tid := range races {
				p.postponed.del(tid) // line 17
			}
			p.tracked += len(races)
			return sched.Decision{Grants: races} // line 16
		}
		// Wait for a race to happen (line 21).
		p.postponed.add(t, v.Step)
		p.postpones++
		v.Act(sched.ActionRecord{Kind: sched.ActPostpone, Step: v.Step, Thread: t,
			Stmt: op.Stmt, Loc: op.Loc, Lock: event.NoLock})
		return sched.Decision{}
	}
	// Trivial case: execute the next statement (line 24).
	return v.Grant(t)
}
