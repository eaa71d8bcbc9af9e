package schedprof

import (
	"fmt"
	"io"

	"racefuzzer/internal/sched"
	"racefuzzer/internal/traceevent"
)

// Timeline is an immutable copy of one trial's span ring, unwrapped into
// chronological order, plus the metadata a trace viewer needs. Build it
// with TimelineOf before handing the trial back to a collector.
type Timeline struct {
	Name    string
	Seed    int64
	Threads []string
	Spans   []Span
	Phase   [sched.NumPhases]int64
	Dropped int64
}

// TimelineOf snapshots trial t (nil trial: nil timeline). When the ring
// wrapped, the timeline holds the most recent len(ring) spans and Dropped
// counts the overwritten prefix.
func TimelineOf(t *Trial) *Timeline {
	if t == nil {
		return nil
	}
	ring, n := t.Ring(), t.Spans()
	cap64 := int64(len(ring))
	m := min(n, cap64)
	tl := &Timeline{
		Name:    t.Name,
		Seed:    t.Seed,
		Threads: append([]string(nil), t.Threads...),
		Spans:   make([]Span, m),
		Phase:   t.Phase,
		Dropped: n - m,
	}
	first := n - m // index of the oldest surviving span
	for i := int64(0); i < m; i++ {
		tl.Spans[i] = ring[(first+i)%cap64]
	}
	return tl
}

const (
	tracePid = 1
	// schedTid is the synthetic scheduler track; model thread T(i) renders
	// as tid i+1.
	schedTid = 0
)

const usPerNs = traceevent.UsPerNs

// Events renders the timeline as Chrome trace events: one track per model
// thread (a wait slice while parked, then the op's service slice) plus a
// scheduler track carrying the trial's startup/loop/teardown phases.
func (tl *Timeline) Events() []traceevent.Event {
	evs := make([]traceevent.Event, 0, 2*len(tl.Spans)+2*len(tl.Threads)+8)
	evs = append(evs, traceevent.Meta("process_name", tracePid, schedTid,
		map[string]any{"name": fmt.Sprintf("racefuzzer trial %q seed=%d", tl.Name, tl.Seed)}))
	evs = append(evs, traceevent.Meta("thread_name", tracePid, schedTid, map[string]any{"name": "scheduler"}))
	evs = append(evs, traceevent.Meta("thread_sort_index", tracePid, schedTid, map[string]any{"sort_index": 0}))
	for id, name := range tl.Threads {
		tid := id + 1
		evs = append(evs, traceevent.Meta("thread_name", tracePid, tid,
			map[string]any{"name": fmt.Sprintf("T%d %s", id, name)}))
		evs = append(evs, traceevent.Meta("thread_sort_index", tracePid, tid, map[string]any{"sort_index": tid}))
	}
	if tl.Phase[sched.PhaseDone] > 0 {
		bounds := [][2]int64{
			{0, tl.Phase[sched.PhaseLoopEnter]},
			{tl.Phase[sched.PhaseLoopEnter], tl.Phase[sched.PhaseLoopExit]},
			{tl.Phase[sched.PhaseLoopExit], tl.Phase[sched.PhaseDone]},
		}
		for p, b := range bounds {
			evs = append(evs, traceevent.Slice(phaseNames[p], "phase",
				tracePid, schedTid, b[0], b[1]-b[0], nil))
		}
	}
	for _, sp := range tl.Spans {
		tid := int(sp.Thread) + 1
		kind := sched.OpKind(sp.Kind).String()
		if sp.WaitNs > 0 {
			evs = append(evs, traceevent.Slice("wait:"+kind, "wait",
				tracePid, tid, sp.StartNs-sp.WaitNs, sp.WaitNs,
				map[string]any{"step": sp.Step}))
		}
		evs = append(evs, traceevent.Slice(kind, "op",
			tracePid, tid, sp.StartNs, sp.DurNs,
			map[string]any{"step": sp.Step, "waitNs": sp.WaitNs, "serviceNs": sp.DurNs}))
	}
	return evs
}

// WriteTrace writes the timeline as Chrome trace-event JSON.
func (tl *Timeline) WriteTrace(w io.Writer) error {
	if tl == nil {
		return fmt.Errorf("schedprof: nil timeline")
	}
	return traceevent.Write(w, tl.Events())
}

// SaveFile writes the timeline's trace to path, creating parent
// directories (so a -perfdir that does not exist yet just works).
func (tl *Timeline) SaveFile(path string) error {
	if tl == nil {
		return fmt.Errorf("schedprof: nil timeline")
	}
	return traceevent.SaveFile(path, tl.Events())
}
