package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"racefuzzer/internal/core"
	"racefuzzer/internal/schedprof"
	"racefuzzer/internal/traceevent"
)

// perLayer lists every metric a traced run prints, in print order. A
// workload that does not exercise a layer prints that layer's metrics as 0.
// Each metric is timed or counted at a public seam, from outside the
// program:
//
//   - core.*: a timing sched.Policy around core.NewRaceFuzzerPolicy (and
//     the deadlock and atomicity policies) in re-driven phase-2 trials.
//   - hybrid.*, deadlock.*, atomizer.*: a timing sched.Observer around each
//     phase-1 detector, plus its post-run query (hybrid.Detector.Pairs).
//   - sched.*: the sched.Run call around both, and a schedprof.Collector
//     attached through sched.Config.Prof for the handoff's wait/service
//     split. The model body and event labelling have no seam of their own
//     and are counted in sched.self_ns_per_step.
//   - overhead.*: Table 1's runtime columns on moldyn at width 1.
//   - harness.*, corpus.*, obs.*, flightrec.*, fleet.*: a timing
//     harness.RoundExecutor around the coordinator, fleet.WorkerOptions
//     Execute/Sleep/Client seams, a timing obs.Sink and a timed
//     corpus.Store.Save.
var perLayer = []metricDef{
	{"core.policy_ns_per_step", "ns", "lower"},
	{"core.policy_frac", "ratio", "lower"},
	{"core.policy_steps_per_trial", "count", "lower"},
	{"core.race_rate", "ratio", "higher"},
	{"core.released_per_trial", "count", "lower"},
	{"core.aged_per_trial", "count", "lower"},
	{"core.tracked_per_trial", "count", "lower"},
	{"core.deadlock.confirm_ms_p50", "ms", "lower"},
	{"core.atomicity.confirm_ms_p50", "ms", "lower"},
	{"core.executor_speedup", "ratio", "higher"},
	{"hybrid.on_event_ns", "ns", "lower"},
	{"hybrid.frac", "ratio", "lower"},
	{"hybrid.events_per_trial", "count", "lower"},
	{"hybrid.pairs_us", "us", "lower"},
	{"hybrid.warnings", "count", "lower"},
	{"hybrid.precision", "ratio", "higher"},
	{"deadlock.on_event_ns", "ns", "lower"},
	{"atomizer.on_event_ns", "ns", "lower"},
	{"sched.self_ns_per_step", "ns", "lower"},
	{"sched.run_us_p50", "us", "lower"},
	{"sched.run_us_p99", "us", "lower"},
	{"sched.steps_per_trial", "count", "lower"},
	{"sched.rounds_per_trial", "count", "lower"},
	{"sched.wait_ns_mean", "ns", "lower"},
	{"sched.service_ns_mean", "ns", "lower"},
	{"sched.forced_grants_per_trial", "count", "lower"},
	{"sched.empty_rounds_per_trial", "count", "lower"},
	{"sched.enabled_mean", "count", "lower"},
	{"overhead.normal_us", "us", "lower"},
	{"overhead.hybrid_us", "us", "lower"},
	{"overhead.racefuzzer_us", "us", "lower"},
	{"overhead.hybrid_x", "ratio", "lower"},
	{"overhead.racefuzzer_x", "ratio", "lower"},
	{"harness.unit_ms_p50", "ms", "lower"},
	{"harness.unit_ms_p90", "ms", "lower"},
	{"harness.round_ms_mean", "ms", "lower"},
	{"corpus.new_sigs", "count", "higher"},
	{"corpus.known_sightings", "count", "lower"},
	{"corpus.cells", "count", "higher"},
	{"corpus.dedup_rate", "ratio", "lower"},
	{"corpus.save_ms", "ms", "lower"},
	{"obs.sink_emit_ns", "ns", "lower"},
	{"obs.records", "count", "lower"},
	{"flightrec.witnesses", "count", "higher"},
	{"flightrec.witness_kb", "KiB", "lower"},
	{"fleet.exec_ms_p50", "ms", "lower"},
	{"fleet.exec_ms_p90", "ms", "lower"},
	{"fleet.worker_busy_frac", "ratio", "higher"},
	{"fleet.lease_rpc_ms_p50", "ms", "lower"},
	{"fleet.result_rpc_ms_p50", "ms", "lower"},
	{"fleet.result_kb_mean", "KiB", "lower"},
	{"fleet.idle_sleep_ms", "ms", "lower"},
	{"fleet.requeues", "count", "lower"},
	{"fleet.dropped", "count", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// metricDef names one metric, its unit and which direction is better.
type metricDef struct{ name, unit, better string }

// maxTrialSpans caps the trial spans a traced run keeps; later trials are
// still measured, only their spans are dropped.
const maxTrialSpans = 20_000

// span is one recorded interval. Spans of one pass (fleet: one campaign)
// share a trace id; parent is the id of the enclosing span, 0 for none.
type span struct {
	name, cat      string
	lane           int
	startNs, durNs int64
	trace          int64
	id, parent     int
	// Trial spans carry the time their policy and detector took.
	policyNs, observerNs int64
	steps                int
}

// ledger is a traced run's record: spans, kept in memory and written out at
// the end, and the per-layer sums the metrics are computed from. Trials are
// folded on the driving goroutine, in trial order; fleet seams record from
// worker goroutines under mu.
type ledger struct {
	workload string
	epoch    time.Time
	prof     *schedprof.Collector

	mu          sync.Mutex
	spans       []span
	open        []int // ids of the main lane's open spans
	trace       int64
	trialSpans  int
	droppedSpan int

	// Every traced execution.
	trials, steps, rounds       int64
	runNs, policyNs, observerNs int64
	runUs                       []float64
	// Race phase-2 trials: the RaceFuzzer policy.
	raceTrials, raceCreated                  int64
	released, aged, tracked                  int64
	racePolicyNs, racePolicySteps, raceRunNs int64
	// Phase-1 detectors by name (hybrid, deadlock, atomizer).
	det map[string]*detStat
	// Summed sched.Run time of each deadlock and atomicity target's
	// phase-2 trials: the work of one ConfirmDeadlock/ConfirmAtomicity call.
	confirmMs map[string][]float64
	// Table 1 columns 6 and 7: phase-1 warnings and confirmed races.
	potential, confirmed int
	passes               int

	fleet  fleetStats
	values map[string]float64 // measured outside the trial folds
}

// detStat sums one detector's cost over its phase-1 trials.
type detStat struct {
	ns, events, trials, runNs, queryNs int64
}

func newLedger(workload string) *ledger {
	return &ledger{
		workload:  workload,
		epoch:     time.Now(),
		prof:      schedprof.NewCollector(),
		det:       map[string]*detStat{},
		confirmMs: map[string][]float64{},
		values:    map[string]float64{},
	}
}

// beginPass opens the span of one pass under a fresh trace id, the pass
// seed.
func (l *ledger) beginPass(seed int64) func() {
	l.mu.Lock()
	l.trace = seed
	l.passes++
	l.mu.Unlock()
	return l.begin("pass", fmt.Sprintf("pass %d", seed))
}

// begin opens a span on the main lane, nested in the innermost open one,
// and returns the function that closes it. A nil ledger records nothing.
func (l *ledger) begin(cat, name string) func() {
	if l == nil {
		return func() {}
	}
	start := time.Now()
	l.mu.Lock()
	id := l.addLocked(span{name: name, cat: cat, startNs: start.Sub(l.epoch).Nanoseconds()})
	l.open = append(l.open, id)
	l.mu.Unlock()
	return func() {
		l.mu.Lock()
		l.spans[id-1].durNs = time.Since(start).Nanoseconds()
		l.open = l.open[:len(l.open)-1]
		l.mu.Unlock()
	}
}

// record adds a closed span, a child of the innermost open main-lane span.
func (l *ledger) record(s span) {
	l.mu.Lock()
	l.addLocked(s)
	l.mu.Unlock()
}

func (l *ledger) addLocked(s span) int {
	s.trace = l.trace
	s.id = len(l.spans) + 1
	if n := len(l.open); n > 0 {
		s.parent = l.open[n-1]
	}
	l.spans = append(l.spans, s)
	return s.id
}

// foldTrial adds one execution to the scheduler totals and, under the cap,
// records its span on its pool lane.
func (l *ledger) foldTrial(kind string, t trialOut) {
	l.trials++
	l.steps += int64(t.res.Steps)
	l.rounds += int64(t.res.Rounds)
	l.runNs += t.runNs
	l.policyNs += t.pol.ns
	l.runUs = append(l.runUs, float64(t.runNs)/1e3)
	var obsNs int64
	if t.obs != nil {
		obsNs = t.obs.ns
		l.observerNs += obsNs
	}
	if l.trialSpans >= maxTrialSpans {
		l.droppedSpan++
		return
	}
	l.trialSpans++
	l.record(span{
		name: kind, cat: "trial", lane: t.lane + 1, startNs: t.startNs, durNs: t.runNs,
		policyNs: t.pol.ns, observerNs: obsNs, steps: t.res.Steps,
	})
}

// foldDetector folds one phase-1 observation of detector det.
func (l *ledger) foldDetector(det string, t trialOut) {
	l.foldTrial(det, t)
	d := l.det[det]
	if d == nil {
		d = &detStat{}
		l.det[det] = d
	}
	d.ns += t.obs.ns
	d.events += t.obs.calls
	d.trials++
	d.runNs += t.runNs
	d.queryNs += t.queryNs
}

// foldRace folds one race phase-2 trial and its policy's outcome counters.
func (l *ledger) foldRace(t trialOut, pol *core.RaceFuzzerPolicy) {
	l.foldTrial("race", t)
	l.raceTrials++
	if pol.RaceCreated() {
		l.raceCreated++
	}
	released, aged := pol.Stats()
	l.released += int64(released)
	l.aged += int64(aged)
	l.tracked += int64(pol.Tracked())
	l.racePolicyNs += t.pol.ns
	l.racePolicySteps += t.pol.calls
	l.raceRunNs += t.runNs
}

// metrics computes every per-layer metric, in perLayer order.
func (l *ledger) metrics() []metric {
	v := map[string]float64{}
	for k, x := range l.values {
		v[k] = x
	}
	if l.raceTrials > 0 {
		v["core.policy_ns_per_step"] = ratio(l.racePolicyNs, l.racePolicySteps)
		v["core.policy_frac"] = ratio(l.racePolicyNs, l.raceRunNs)
		v["core.policy_steps_per_trial"] = ratio(l.racePolicySteps, l.raceTrials)
		v["core.race_rate"] = ratio(l.raceCreated, l.raceTrials)
		v["core.released_per_trial"] = ratio(l.released, l.raceTrials)
		v["core.aged_per_trial"] = ratio(l.aged, l.raceTrials)
		v["core.tracked_per_trial"] = ratio(l.tracked, l.raceTrials)
	}
	v["core.deadlock.confirm_ms_p50"] = quantile(l.confirmMs["deadlock"], 0.5)
	v["core.atomicity.confirm_ms_p50"] = quantile(l.confirmMs["atomicity"], 0.5)
	if d := l.det["hybrid"]; d != nil {
		v["hybrid.on_event_ns"] = ratio(d.ns, d.events)
		v["hybrid.frac"] = ratio(d.ns, d.runNs)
		v["hybrid.events_per_trial"] = ratio(d.events, d.trials)
		v["hybrid.pairs_us"] = ratio(d.queryNs, d.trials) / 1e3
	}
	if l.passes > 0 {
		v["hybrid.warnings"] = float64(l.potential) / float64(l.passes)
	}
	if l.raceTrials > 0 && l.potential > 0 {
		v["hybrid.precision"] = float64(l.confirmed) / float64(l.potential)
	}
	if d := l.det["deadlock"]; d != nil {
		v["deadlock.on_event_ns"] = ratio(d.ns, d.events)
	}
	if d := l.det["atomizer"]; d != nil {
		v["atomizer.on_event_ns"] = ratio(d.ns, d.events)
	}
	if l.trials > 0 {
		v["sched.self_ns_per_step"] = ratio(l.runNs-l.policyNs-l.observerNs, l.steps)
		v["sched.run_us_p50"] = quantile(l.runUs, 0.5)
		v["sched.run_us_p99"] = quantile(l.runUs, 0.99)
		v["sched.steps_per_trial"] = ratio(l.steps, l.trials)
		v["sched.rounds_per_trial"] = ratio(l.rounds, l.trials)
		s := l.prof.Summary()
		var grants int64
		var waitNs, svcNs float64
		for _, op := range s.Ops {
			grants += op.Count
			waitNs += op.Wait.MeanNs * float64(op.Count)
			svcNs += op.Service.MeanNs * float64(op.Count)
		}
		if grants > 0 {
			v["sched.wait_ns_mean"] = waitNs / float64(grants)
			v["sched.service_ns_mean"] = svcNs / float64(grants)
		}
		v["sched.forced_grants_per_trial"] = ratio(s.ForcedGrants, s.Trials)
		v["sched.empty_rounds_per_trial"] = ratio(s.EmptyRounds, s.Trials)
		v["sched.enabled_mean"] = s.EnabledMean
	}
	l.fleet.metrics(v)
	out := make([]metric, len(perLayer))
	for i, d := range perLayer {
		out[i] = metric{d.name, v[d.name], d.unit}
	}
	return out
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// saveSpans writes the spans as Chrome trace-event JSON, which Perfetto
// loads: one track per lane (0 is the main goroutine, 1..N the executor pool or the
// fleet workers), each slice carrying its trace and parent ids.
func (l *ledger) saveSpans(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lanes := map[int]bool{0: true}
	for _, s := range l.spans {
		lanes[s.lane] = true
	}
	ids := make([]int, 0, len(lanes))
	for lane := range lanes {
		ids = append(ids, lane)
	}
	sort.Ints(ids)
	events := []traceevent.Event{
		traceevent.Meta("process_name", 1, 0, map[string]any{"name": "campaignbench " + l.workload}),
	}
	for _, lane := range ids {
		name := "main"
		if lane > 0 {
			name = fmt.Sprintf("lane %d", lane)
		}
		events = append(events, traceevent.Meta("thread_name", 1, lane, map[string]any{"name": name}))
	}
	for _, s := range l.spans {
		args := map[string]any{"trace": s.trace, "id": s.id, "parent": s.parent}
		if s.cat == "trial" {
			args["policy_ns"] = s.policyNs
			args["observer_ns"] = s.observerNs
			args["steps"] = s.steps
		}
		events = append(events, traceevent.Slice(s.name, s.cat, 1, s.lane, s.startNs, s.durNs, args))
	}
	if l.droppedSpan > 0 {
		events = append(events, traceevent.Meta("dropped_trial_spans", 1, 0, map[string]any{"count": l.droppedSpan}))
	}
	return traceevent.SaveFile(path, events)
}
