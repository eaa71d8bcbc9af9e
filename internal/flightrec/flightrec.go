// Package flightrec is the schedule flight recorder: it captures, per run,
// the full causal record of an execution — every scheduling decision (chosen
// thread, enabled set, RNG draw position), every policy action
// (postpone/resume/livelock-break, race-check outcome), and the event
// stream — into a compact, versioned JSONL trace. It is the repository's
// one recording format: every recorded execution goes through core.Record
// and is saved, loaded and rendered here.
//
// Three consumers sit on top of the recording:
//
//   - The replay-divergence detector (Diverge): re-run a recorded
//     (seed, target) and diff the fresh recording against the stored one
//     record by record. The paper's determinism claim — a single RNG seed
//     replays the whole schedule (§2.2) — becomes a checked invariant that
//     fails loudly with the first divergent step.
//   - The race-explanation renderer (Recording.Explain): a per-thread ASCII
//     timeline of the window around the confirmed race — the postpone
//     point, the second access's arrival, the racing statements with their
//     source labels and lock sets.
//   - Campaign auto-capture (core.Options.TraceDir): pipelines archive a
//     replayable witness trace for the first confirmed hit of each target.
//
// Decisions are recorded scheduler-side (the recorder is one entry of
// sched.Config.Observers) so every policy is covered and force-grants are visible. Recording is
// strictly passive: the recorder observes deterministic points only, so a
// run records identically with or without it.
package flightrec

import (
	"fmt"
	"strings"

	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

// Header identifies a recording: what ran, under which policy and seed.
// The V field carries the format version (FormatVersion).
type Header struct {
	V int `json:"v"`
	// Label names the campaign/benchmark; Policy the scheduling policy.
	Label  string `json:"label,omitempty"`
	Policy string `json:"policy,omitempty"`
	// Kind names the directed pipeline ("race", "deadlock", "atomicity").
	Kind string `json:"kind,omitempty"`
	// Seed replays the execution.
	Seed int64 `json:"seed"`
	// Pair renders the directed target (statement pair, lock pair, block).
	Pair     string `json:"pair,omitempty"`
	MaxSteps int    `json:"maxSteps,omitempty"`
}

// Decision is the wire form of one sched.DecisionRecord.
type Decision struct {
	Round   int    `json:"i"`
	Step    int    `json:"n"`
	Enabled []int  `json:"en"`
	Grants  []int  `json:"g,omitempty"`
	Draws   uint64 `json:"d"`
	Forced  bool   `json:"f,omitempty"`
}

// Action is the wire form of one sched.ActionRecord.
type Action struct {
	Kind           string `json:"act"`
	Step           int    `json:"n"`
	Thread         int    `json:"t"`
	Others         []int  `json:"o,omitempty"`
	Stmt           string `json:"s,omitempty"`
	OtherStmt      string `json:"s2,omitempty"`
	Loc            int    `json:"m"`
	LocName        string `json:"mn,omitempty"`
	Lock           int    `json:"l"`
	CandidateFirst bool   `json:"cf,omitempty"`
}

// Summary closes a recording with the run's outcome.
type Summary struct {
	Steps        int      `json:"steps"`
	Races        int      `json:"races,omitempty"`
	Deadlock     bool     `json:"deadlock,omitempty"`
	DeadlockStep int      `json:"deadlockStep,omitempty"`
	Aborted      bool     `json:"aborted,omitempty"`
	PolicyStalls int      `json:"stalls,omitempty"`
	Exceptions   []string `json:"exceptions,omitempty"`
}

// Record is one line of a recording: exactly one of the four fields is set.
type Record struct {
	Dec *Decision
	Act *Action
	Ev  *WireEvent
	End *Summary
}

// Step returns the scheduler step the record is anchored to (-1 for end
// records, which carry a total instead).
func (r Record) Step() int {
	switch {
	case r.Dec != nil:
		return r.Dec.Step
	case r.Act != nil:
		return r.Act.Step
	case r.Ev != nil:
		return r.Ev.Step
	}
	return -1
}

// Recording is a complete flight record: header plus records in causal
// order (decision → its grants' events, actions interleaved where the
// policy took them, one end summary).
type Recording struct {
	Header  Header
	Records []Record
	// Truncated reports that Load hit a partial final line — the footprint
	// of a crash mid-write — and skipped it. The records before it are
	// intact and usable; Save never sets this.
	Truncated bool
}

// Summary returns the recording's end summary (zero value when the
// recording was not finished).
func (rec *Recording) Summary() Summary {
	for i := len(rec.Records) - 1; i >= 0; i-- {
		if rec.Records[i].End != nil {
			return *rec.Records[i].End
		}
	}
	return Summary{}
}

// Events extracts the plain event stream, re-interning statement labels,
// so a saved recording can be fed to any detector offline: the detectors
// are pure functions of the event stream.
func (rec *Recording) Events() []event.Event {
	var out []event.Event
	for _, r := range rec.Records {
		if r.Ev != nil {
			out = append(out, fromWire(*r.Ev))
		}
	}
	return out
}

// Dump renders the recording's last n events, one per line, after a line
// counting the earlier events it leaves out.
func (rec *Recording) Dump(n int) string {
	events := rec.Events()
	var b strings.Builder
	if len(events) > n {
		fmt.Fprintf(&b, "... %d earlier events elided ...\n", len(events)-n)
		events = events[len(events)-n:]
	}
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Decisions extracts the decision records in order.
func (rec *Recording) Decisions() []Decision {
	var out []Decision
	for _, r := range rec.Records {
		if r.Dec != nil {
			out = append(out, *r.Dec)
		}
	}
	return out
}

// Actions extracts the policy action records in order.
func (rec *Recording) Actions() []Action {
	var out []Action
	for _, r := range rec.Records {
		if r.Act != nil {
			out = append(out, *r.Act)
		}
	}
	return out
}

// Recorder captures one execution. List it in sched.Config.Observers — it
// receives events, decisions and actions, in causal order — then call
// Finish with the run's Result and take the Recording. A Recorder is
// single-use.
type Recorder struct {
	h    Header
	recs []Record
}

// NewRecorder starts a recording described by h (h.V is stamped with the
// current format version).
func NewRecorder(h Header) *Recorder {
	h.V = FormatVersion
	return &Recorder{h: h}
}

// OnEvent implements sched.Observer.
func (r *Recorder) OnEvent(e event.Event) {
	w := toWire(e)
	r.recs = append(r.recs, Record{Ev: &w})
}

// OnDecision records one scheduling decision. Its thread slices are the
// scheduler's scratch, so they are copied.
func (r *Recorder) OnDecision(d sched.DecisionRecord) {
	r.recs = append(r.recs, Record{Dec: &Decision{
		Round:   d.Round,
		Step:    d.Step,
		Enabled: threadsToInts(d.Enabled),
		Grants:  threadsToInts(d.Grants),
		Draws:   d.Draws,
		Forced:  d.Forced,
	}})
}

// OnAction records one policy action.
func (r *Recorder) OnAction(a sched.ActionRecord) {
	r.recs = append(r.recs, Record{Act: &Action{
		Kind:           a.Kind.String(),
		Step:           a.Step,
		Thread:         int(a.Thread),
		Others:         threadsToInts(a.Others),
		Stmt:           a.Stmt.Name(),
		OtherStmt:      a.OtherStmt.Name(),
		Loc:            int(a.Loc),
		LocName:        a.LocName,
		Lock:           int(a.Lock),
		CandidateFirst: a.CandidateFirst,
	}})
}

// Finish appends the end summary derived from the run's result.
func (r *Recorder) Finish(res *sched.Result) {
	end := Summary{
		Steps:        res.Steps,
		Aborted:      res.Aborted,
		PolicyStalls: res.PolicyStalls,
	}
	if res.Deadlock != nil {
		end.Deadlock = true
		end.DeadlockStep = res.Deadlock.Step
	}
	for _, ex := range res.Exceptions {
		end.Exceptions = append(end.Exceptions, ex.String())
	}
	for _, rec := range r.recs {
		if rec.Act != nil && (rec.Act.Kind == sched.ActRace.String() || rec.Act.Kind == sched.ActViolation.String()) {
			end.Races++
		}
	}
	r.recs = append(r.recs, Record{End: &end})
}

// Recording returns the captured recording.
func (r *Recorder) Recording() *Recording {
	return &Recording{Header: r.h, Records: r.recs}
}

func threadsToInts(ts []event.ThreadID) []int {
	if len(ts) == 0 {
		return nil
	}
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = int(t)
	}
	return out
}

var _ sched.Observer = (*Recorder)(nil)

// threadName renders a wire thread id.
func threadName(t int) string { return fmt.Sprintf("T%d", t) }
