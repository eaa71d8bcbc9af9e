package sched

import (
	"fmt"
	"strings"

	"racefuzzer/internal/event"
)

// Flight-recorder records: besides the event stream, the scheduler hands
// observers that ask for them (see Observer) its *decisions* — which thread
// was chosen out of which enabled set, and how much randomness had been
// consumed at that point — and the policy's *actions* (postpone/resume/
// livelock-break and race-check outcomes). Together with the events these
// form the full causal record of one execution; internal/flightrec persists
// them as a versioned JSONL trace and diffs two recordings to check the
// paper's seed-replay guarantee step by step.
//
// Decisions are recorded scheduler-side, not policy-side, for two reasons:
// every policy (including the baselines) is covered without instrumentation,
// and the record captures what the scheduler actually did — including
// force-grants past a stalled policy — rather than what the policy asked for.

// DecisionRecord describes one scheduling round from the scheduler's view.
// Enabled and Grants are the scheduler's own scratch, valid only during the
// OnDecision call; an observer that keeps them copies them.
type DecisionRecord struct {
	// Round is the 0-based index of the policy round within the execution.
	Round int
	// Step is the scheduler step count when the decision was taken (steps
	// advance only on grants, so consecutive empty rounds share a Step).
	Step int
	// Enabled is Enabled(s) at decision time, ascending.
	Enabled []event.ThreadID
	// Grants is the policy's answer (possibly empty), in grant order.
	Grants []event.ThreadID
	// Draws is the total number of raw RNG draws consumed by the execution
	// after the decision — the position in the random stream. Two replays of
	// the same seed must agree on every Draws value; a mismatch pinpoints
	// the first round at which randomness was consumed differently.
	Draws uint64
	// Forced marks a grant the scheduler imposed after the policy returned
	// empty decisions past the stall bound (Result.PolicyStalls counts them).
	Forced bool
}

func (d DecisionRecord) String() string {
	forced := ""
	if d.Forced {
		forced = " FORCED"
	}
	return fmt.Sprintf("round %d step %d: enabled=%s grants=%s draws=%d%s",
		d.Round, d.Step, threadList(d.Enabled), threadList(d.Grants), d.Draws, forced)
}

// ActionKind enumerates the policy actions a flight recorder captures.
type ActionKind int

const (
	// ActPostpone is a thread entering the policy's postponed set (Algorithm
	// 1 lines 14 and 21, and the analogous moves of the deadlock- and
	// atomicity-directed policies).
	ActPostpone ActionKind = iota
	// ActResume is a postponed thread released because postponed ⊇ enabled
	// (Algorithm 1 line 26).
	ActResume
	// ActLivelockBreak is a postponed thread released by the livelock
	// monitor's age bound (§4).
	ActLivelockBreak
	// ActRace is a successful race check: the candidate thread arrived at
	// the target pair conflicting with postponed thread(s) — a real race,
	// resolved by coin flip (CandidateFirst records the outcome).
	ActRace
	// ActViolation is a confirmed atomicity violation: an interferer was
	// deliberately interleaved inside the victim's atomic block.
	ActViolation
)

func (k ActionKind) String() string {
	switch k {
	case ActPostpone:
		return "postpone"
	case ActResume:
		return "resume"
	case ActLivelockBreak:
		return "livelock-break"
	case ActRace:
		return "race"
	case ActViolation:
		return "violation"
	}
	return fmt.Sprintf("action(%d)", int(k))
}

// ActionKindFor is the inverse of ActionKind.String, for trace loading.
func ActionKindFor(s string) (ActionKind, bool) {
	for k := ActPostpone; k <= ActViolation; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// ActionRecord describes one policy action. Which fields are meaningful
// depends on Kind:
//
//   - ActPostpone:      Thread (the postponed thread), Stmt/Loc or Lock (its
//     pending operation's target).
//   - ActResume:        Thread (the released thread).
//   - ActLivelockBreak: Thread (the aged-out thread).
//   - ActRace:          Thread (the arriving candidate), Others (the
//     postponed threads it races with), Stmt (candidate's statement),
//     OtherStmt (postponed side's statement), Loc, CandidateFirst.
//   - ActViolation:     Thread (the victim inside its atomic block), Others
//     (the interferer), Stmt (the block's second access), OtherStmt (the
//     interferer's statement), Loc.
type ActionRecord struct {
	Kind   ActionKind
	Step   int
	Thread event.ThreadID
	Others []event.ThreadID
	// Stmt and OtherStmt are the statements involved (NoStmt when the action
	// has no statement, e.g. a lock-acquisition postpone).
	Stmt      event.Stmt
	OtherStmt event.Stmt
	Loc       event.MemLoc
	// LocName is Loc's debug name, carried so a recording explains itself
	// across processes. View.Act fills it; policies leave it empty.
	LocName string
	Lock    event.LockID
	// CandidateFirst records the race resolution (ActRace only).
	CandidateFirst bool
}

func (a ActionRecord) String() string {
	switch a.Kind {
	case ActRace:
		order := "postponed-first"
		if a.CandidateFirst {
			order = "candidate-first"
		}
		return fmt.Sprintf("race at step %d: %s@%s vs %s@%s on %s, resolved %s",
			a.Step, a.Thread, a.Stmt, threadList(a.Others), a.OtherStmt, a.Loc, order)
	case ActViolation:
		return fmt.Sprintf("violation at step %d: %s@%s interleaved inside %s's block before %s@%s on %s",
			a.Step, threadList(a.Others), a.OtherStmt, a.Thread, a.Thread, a.Stmt, a.Loc)
	case ActPostpone:
		at := ""
		if a.Stmt != event.NoStmt {
			at = fmt.Sprintf(" before %s on %s", a.Stmt, a.Loc)
		} else if a.Lock != event.NoLock {
			at = fmt.Sprintf(" before acquiring %s", a.Lock)
		}
		return fmt.Sprintf("postpone %s at step %d%s", a.Thread, a.Step, at)
	}
	return fmt.Sprintf("%s %s at step %d", a.Kind, a.Thread, a.Step)
}

func threadList(ts []event.ThreadID) string {
	if len(ts) == 0 {
		return "[]"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range ts {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.String())
	}
	b.WriteByte(']')
	return b.String()
}
