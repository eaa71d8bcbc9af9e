package obs

import (
	"time"

	"racefuzzer/internal/event"
)

// enabledBounds buckets the enabled-thread count observed at each scheduling
// round; model programs rarely exceed a few dozen runnable threads.
var enabledBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// RunMetrics collects scheduler- and policy-level telemetry for a single
// execution. The scheduler records steps, context switches, the event
// stream (RunMetrics is a sched.Observer) and the enabled-thread histogram;
// the race-directed policy records postpone/resume/livelock-breaker counts
// and its scheduling decisions.
//
// Every method is safe on a nil receiver, so instrumented code calls probes
// unconditionally: a nil *RunMetrics is the off switch.
//
// RunMetrics is written only under its execution's scheduler lock and must
// not be shared across concurrent executions.
type RunMetrics struct {
	steps     int
	switches  int
	decisions int
	events    [event.KindCount]int64

	postpones      int
	resumes        int
	livelockBreaks int

	enabled *Histogram
	wall    time.Duration
}

// NewRunMetrics returns an empty per-run metric set.
func NewRunMetrics() *RunMetrics {
	return &RunMetrics{enabled: NewHistogram(enabledBounds...)}
}

// OnEvent implements sched.Observer: events are tallied by kind, reusing the
// detector event stream so the scheduler needs no second instrumentation
// channel.
func (m *RunMetrics) OnEvent(e event.Event) {
	if m == nil {
		return
	}
	if e.Kind >= 0 && e.Kind < event.KindCount {
		m.events[e.Kind]++
	}
}

// ObserveEnabled records the enabled-thread count of one scheduling round.
func (m *RunMetrics) ObserveEnabled(n int) {
	if m == nil {
		return
	}
	m.enabled.Observe(float64(n))
}

// SetSteps records the execution's final step count.
func (m *RunMetrics) SetSteps(n int) {
	if m != nil {
		m.steps = n
	}
}

// SetSwitches records the execution's final context-switch count.
func (m *RunMetrics) SetSwitches(n int) {
	if m != nil {
		m.switches = n
	}
}

// SetWall records the execution's wall-clock duration.
func (m *RunMetrics) SetWall(d time.Duration) {
	if m != nil {
		m.wall = d
	}
}

// Decision counts one policy scheduling decision.
func (m *RunMetrics) Decision() {
	if m != nil {
		m.decisions++
	}
}

// Postpone counts one thread entering the policy's postponed set.
func (m *RunMetrics) Postpone() {
	if m != nil {
		m.postpones++
	}
}

// Resume counts one postponed thread released by the postponed⊇enabled rule
// (Algorithm 1 line 26).
func (m *RunMetrics) Resume() {
	if m != nil {
		m.resumes++
	}
}

// LivelockBreak counts one postponed thread released by the livelock
// monitor's age bound (§4).
func (m *RunMetrics) LivelockBreak() {
	if m != nil {
		m.livelockBreaks++
	}
}

// Stats snapshots the collected telemetry (nil for a nil receiver).
func (m *RunMetrics) Stats() *RunStats {
	if m == nil {
		return nil
	}
	return &RunStats{
		Steps:          m.steps,
		Switches:       m.switches,
		Decisions:      m.decisions,
		Events:         m.events,
		Postpones:      m.postpones,
		Resumes:        m.resumes,
		LivelockBreaks: m.livelockBreaks,
		Enabled:        m.enabled.Snapshot(),
		Wall:           m.wall,
	}
}

// RunStats is the immutable per-run telemetry surfaced on sched.Result when
// a RunMetrics was attached to the execution's Config.
type RunStats struct {
	// Steps is the number of scheduler steps (granted operations).
	Steps int `json:"steps"`
	// Switches counts grants whose thread differed from the previous grant —
	// the execution's context switches.
	Switches int `json:"switches"`
	// Decisions counts policy scheduling rounds (a round may grant nothing).
	Decisions int `json:"decisions"`
	// Events tallies observer events by event.Kind.
	Events [event.KindCount]int64 `json:"events"`
	// Postpones, Resumes and LivelockBreaks are the race-directed policy's
	// postponed-set traffic (zero under policies without postponement).
	Postpones      int `json:"postpones"`
	Resumes        int `json:"resumes"`
	LivelockBreaks int `json:"livelockBreaks"`
	// Enabled is the histogram of enabled-thread counts per round.
	Enabled HistogramSnapshot `json:"enabled"`
	// Wall is the execution's wall-clock duration.
	Wall time.Duration `json:"wallNs"`
}

// EventCount returns the tally for one event kind (0 for nil stats).
func (s *RunStats) EventCount(k event.Kind) int64 {
	if s == nil || k < 0 || k >= event.KindCount {
		return 0
	}
	return s.Events[k]
}
