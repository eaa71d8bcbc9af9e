package flightrec

import (
	"fmt"
	"strings"

	"racefuzzer/internal/event"
	"racefuzzer/internal/report"
	"racefuzzer/internal/sched"
)

// Race explanation: a confirmed race is only actionable with its causal
// narrative — why the scheduler held a thread back, where the second access
// arrived, and what each side was holding when they met. Explain renders
// that narrative from a recording: header lines describing the race and the
// postpone decisions that staged it, then a per-thread timeline of the
// window around the meeting point (each thread a column, time flowing
// downward), with the policy's actions pinned in as annotations.

// DefaultExplainRadius is the number of scheduler steps shown on each side
// of the focus point.
const DefaultExplainRadius = 15

// explainReach bounds how far before the focus the window stretches to keep
// a participant's postpone point visible.
const explainReach = 60

// Explain renders the recording's causal story around its confirmed race
// (or atomicity violation, or deadlock) with the default window radius.
// The output is a pure function of the recording: a reloaded trace
// re-explains bit-identically.
func (rec *Recording) Explain() string { return rec.ExplainWindow(DefaultExplainRadius) }

// ExplainWindow is Explain with an explicit window radius.
func (rec *Recording) ExplainWindow(radius int) string {
	if radius <= 0 {
		radius = DefaultExplainRadius
	}
	var b strings.Builder
	h := rec.Header
	fmt.Fprintf(&b, "flight recording: %s seed=%d", describe(h), h.Seed)
	if h.Pair != "" {
		fmt.Fprintf(&b, " target=%s", h.Pair)
	}
	b.WriteByte('\n')

	actions := rec.Actions()
	end := rec.Summary()
	hit := lastHit(actions)
	focus := -1
	switch {
	case hit != nil:
		focus = hit.Step
		b.WriteString(narrateHit(*hit))
	case end.Deadlock:
		focus = end.DeadlockStep
		fmt.Fprintf(&b, "real deadlock at step %d (no race hit recorded)\n", end.DeadlockStep)
	default:
		fmt.Fprintf(&b, "no race, violation or deadlock in this recording (%d steps", end.Steps)
		if end.Aborted {
			b.WriteString(", aborted at step bound")
		}
		b.WriteString(")\n")
		return b.String()
	}

	// Narrate the postpone decisions that staged the hit: for each
	// participant, its last postpone before the focus step.
	lo := focus - radius
	if hit != nil {
		for _, t := range participants(*hit) {
			if p := lastPostponeOf(actions, t, focus); p != nil {
				fmt.Fprintf(&b, "  %s\n", postponeLine(*p))
				if p.Step < lo && p.Step >= focus-explainReach {
					lo = p.Step
				}
			}
		}
	}
	if lo < 0 {
		lo = 0
	}
	hi := focus + radius

	// Pin the policy's actions into the timeline as per-thread marks.
	var marks []mark
	for _, a := range actions {
		if a.Step < lo || a.Step > hi {
			continue
		}
		marks = append(marks, mark{Step: a.Step, Thread: event.ThreadID(a.Thread), Text: markText(a)})
	}

	b.WriteByte('\n')
	b.WriteString(timeline(rec.Events(), lo, hi, marks))

	if len(end.Exceptions) > 0 {
		b.WriteString("\nexceptions:\n")
		for _, ex := range end.Exceptions {
			fmt.Fprintf(&b, "  %s\n", ex)
		}
	}
	return b.String()
}

func describe(h Header) string {
	parts := []string{}
	if h.Label != "" {
		parts = append(parts, h.Label)
	}
	if h.Kind != "" {
		parts = append(parts, h.Kind)
	}
	if h.Policy != "" {
		parts = append(parts, "policy="+h.Policy)
	}
	if len(parts) == 0 {
		return "(unlabeled)"
	}
	return strings.Join(parts, " ")
}

// lastHit returns the final race/violation action — the confirmed hit the
// explanation centers on (policies may confirm several; the last is the one
// the run's outcome followed from most closely, and earlier ones remain
// visible as marks when in-window).
func lastHit(actions []Action) *Action {
	for i := len(actions) - 1; i >= 0; i-- {
		k := actions[i].Kind
		if k == sched.ActRace.String() || k == sched.ActViolation.String() {
			a := actions[i]
			return &a
		}
	}
	return nil
}

func participants(hit Action) []int {
	out := []int{hit.Thread}
	out = append(out, hit.Others...)
	return out
}

func lastPostponeOf(actions []Action, thread, before int) *Action {
	var found *Action
	for i := range actions {
		a := actions[i]
		if a.Kind == sched.ActPostpone.String() && a.Thread == thread && a.Step <= before {
			found = &actions[i]
		}
	}
	return found
}

func locLabel(loc int, name string) string {
	if name != "" {
		return fmt.Sprintf("m%d(%s)", loc, name)
	}
	return fmt.Sprintf("m%d", loc)
}

func narrateHit(a Action) string {
	var b strings.Builder
	if a.Kind == sched.ActViolation.String() {
		fmt.Fprintf(&b, "ATOMICITY VIOLATION at step %d on %s: %s interleaved @%s inside %s's block before @%s\n",
			a.Step, locLabel(a.Loc, a.LocName), threadNames(a.Others), a.OtherStmt,
			threadName(a.Thread), a.Stmt)
		return b.String()
	}
	order := "postponed side ran first"
	if a.CandidateFirst {
		order = "candidate ran first"
	}
	fmt.Fprintf(&b, "REAL RACE at step %d on %s: %s arrived at @%s while %s sat postponed at @%s — resolved by coin flip (%s)\n",
		a.Step, locLabel(a.Loc, a.LocName), threadName(a.Thread), a.Stmt,
		threadNames(a.Others), a.OtherStmt, order)
	return b.String()
}

func postponeLine(a Action) string {
	at := ""
	switch {
	case a.Stmt != "":
		at = fmt.Sprintf(" before access @%s on %s", a.Stmt, locLabel(a.Loc, a.LocName))
	case a.Lock >= 0:
		at = fmt.Sprintf(" before acquiring L%d", a.Lock)
	}
	return fmt.Sprintf("%s postponed at step %d%s (waiting for the other side of the pair)",
		threadName(a.Thread), a.Step, at)
}

func markText(a Action) string {
	switch a.Kind {
	case sched.ActPostpone.String():
		return "◀ postponed"
	case sched.ActResume.String():
		return "▶ resumed (postponed ⊇ enabled)"
	case sched.ActLivelockBreak.String():
		return "▶ resumed (livelock monitor)"
	case sched.ActRace.String():
		order := "postponed-first"
		if a.CandidateFirst {
			order = "candidate-first"
		}
		return fmt.Sprintf("*** RACE with %s on %s (%s)", threadNames(a.Others), locLabel(a.Loc, a.LocName), order)
	case sched.ActViolation.String():
		return fmt.Sprintf("*** VIOLATION by %s on %s", threadNames(a.Others), locLabel(a.Loc, a.LocName))
	}
	return a.Kind
}

func threadNames(ts []int) string {
	if len(ts) == 0 {
		return "[]"
	}
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = threadName(t)
	}
	return strings.Join(parts, "+")
}

// mark is an annotation pinned into a timeline: scheduler-side context (a
// postpone decision, a race confirmation) that is not itself an event.
// Marks at step N render after the events of step N and before those of
// N+1; Thread selects the column (NoThread renders in the first column).
type mark struct {
	Step   int
	Thread event.ThreadID
	Text   string
}

// eventCell renders one event compactly for a timeline cell:
// "write m3 @file.go:12 {L0 L1}". Lock/unlock and message events render
// their operands; the step is carried by the row, not the cell.
func eventCell(e event.Event) string {
	switch e.Kind {
	case event.KindMem:
		held := "{}"
		if len(e.Locks) > 0 {
			parts := make([]string, len(e.Locks))
			for i, l := range e.Locks {
				parts[i] = l.String()
			}
			held = "{" + strings.Join(parts, " ") + "}"
		}
		access := "read"
		if e.Access == event.Write {
			access = "write"
		}
		return fmt.Sprintf("%s %s @%s %s", access, e.Loc, e.Stmt, held)
	case event.KindLock:
		return fmt.Sprintf("lock %s @%s", e.Lock, e.Stmt)
	case event.KindUnlock:
		return fmt.Sprintf("unlock %s @%s", e.Lock, e.Stmt)
	case event.KindSnd:
		return fmt.Sprintf("snd g%d", int(e.Msg))
	case event.KindRcv:
		return fmt.Sprintf("rcv g%d", int(e.Msg))
	}
	return e.String()
}

// timeline renders a per-thread ASCII timeline of the events with steps in
// [lo, hi], one column per thread, annotated with marks. Threads are the
// union of those appearing in the window's events and marks, so postponed
// threads (which execute nothing while parked) still get their column.
func timeline(events []event.Event, lo, hi int, marks []mark) string {
	maxT := event.NoThread
	var window []event.Event
	for _, e := range events {
		if e.Step < lo || e.Step > hi {
			continue
		}
		window = append(window, e)
		if e.Thread > maxT {
			maxT = e.Thread
		}
	}
	for _, m := range marks {
		if m.Thread > maxT {
			maxT = m.Thread
		}
	}
	if maxT == event.NoThread {
		return "(no events in window)\n"
	}
	headers := []string{"step"}
	for t := event.ThreadID(0); t <= maxT; t++ {
		headers = append(headers, t.String())
	}
	tbl := report.NewTable(fmt.Sprintf("timeline (steps %d..%d, one column per thread)", lo, hi), headers...)

	addMark := func(m mark) {
		row := make([]any, 1+int(maxT)+1)
		for i := range row {
			row[i] = ""
		}
		row[0] = fmt.Sprintf("%d*", m.Step)
		col := 1 // NoThread: annotate in the first thread column
		if m.Thread != event.NoThread {
			col = 1 + int(m.Thread)
		}
		row[col] = m.Text
		tbl.AddRow(row...)
	}

	mi := 0
	for mi < len(marks) && marks[mi].Step < lo {
		mi++
	}
	for _, e := range window {
		for mi < len(marks) && marks[mi].Step < e.Step {
			addMark(marks[mi])
			mi++
		}
		row := make([]any, 1+int(maxT)+1)
		for i := range row {
			row[i] = ""
		}
		row[0] = fmt.Sprintf("%d", e.Step)
		row[1+int(e.Thread)] = eventCell(e)
		tbl.AddRow(row...)
	}
	for mi < len(marks) && marks[mi].Step <= hi {
		addMark(marks[mi])
		mi++
	}
	return tbl.Render()
}
