package sched

import (
	"testing"

	"racefuzzer/internal/event"
)

// decisionCounter is a decision-only observer: it has OnEvent and
// OnDecision but no OnAction, like the campaign telemetry probe.
type decisionCounter struct{ decisions int }

func (d *decisionCounter) OnEvent(event.Event)       {}
func (d *decisionCounter) OnDecision(DecisionRecord) { d.decisions++ }

// actionNames is an action observer that reads each action's LocName.
type actionNames struct{ bytes int }

func (a *actionNames) OnEvent(event.Event)     {}
func (a *actionNames) OnAction(r ActionRecord) { a.bytes += len(r.LocName) }

// TestMetricsDoNotPerturbSchedule: a telemetry-style observer (events and
// decisions) leaves the event stream and the round count unchanged.
func TestMetricsDoNotPerturbSchedule(t *testing.T) {
	trace := func(extra ...Observer) ([]string, int) {
		rec := &recorder{}
		var final int
		res := Run(counterProgram(3, 10, &final),
			Config{Seed: 42, Observers: append([]Observer{rec}, extra...)})
		return rec.lines, res.Rounds
	}
	bare, bareRounds := trace()
	instrumented, rounds := trace(&decisionCounter{})
	if len(bare) != len(instrumented) || bareRounds != rounds {
		t.Fatalf("event counts differ: %d vs %d (rounds %d vs %d)", len(bare), len(instrumented), bareRounds, rounds)
	}
	for i := range bare {
		if bare[i] != instrumented[i] {
			t.Fatalf("schedules diverge at event %d: %q vs %q", i, bare[i], instrumented[i])
		}
	}
}

// TestActWithoutActionObserverDoesNotAllocate: with only a decision
// observer attached, View.Act neither renders the location name nor
// allocates; an action observer gets the rendered name.
func TestActWithoutActionObserverDoesNotAllocate(t *testing.T) {
	act := func(o Observer) (allocs float64) {
		s := &Scheduler{}
		s.reset(Config{Observers: []Observer{o}})
		loc := s.NewLocRange("arr", 4) + 2
		a := ActionRecord{Kind: ActPostpone, Thread: 1, Stmt: stmt("act:w"), Loc: loc, Lock: event.NoLock}
		return testing.AllocsPerRun(100, func() { s.view.Act(a) })
	}
	if n := act(&decisionCounter{}); n != 0 {
		t.Fatalf("View.Act with a decision-only observer: %.1f allocs, want 0", n)
	}
	names := &actionNames{}
	if n := act(names); n == 0 || names.bytes == 0 {
		t.Fatalf("action observer: %.1f allocs, %d name bytes; want the rendered name", n, names.bytes)
	}
}
