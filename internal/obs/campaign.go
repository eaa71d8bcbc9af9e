package obs

import (
	"sync"
	"time"

	"racefuzzer/internal/event"
)

// stepsToRaceBounds buckets the scheduler step at which a directed run
// created its first race — the "how deep into the execution does the pair
// meet" distribution behind the paper's probability claims.
var stepsToRaceBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000}

// CampaignMetrics aggregates run records (and their attached RunStats) over
// a whole campaign: phase-1 observations plus every phase-2 directed run
// across all targets. It implements Sink.
//
// All methods are nil-safe; a nil *CampaignMetrics records nothing.
type CampaignMetrics struct {
	mu sync.Mutex

	runs, phase1Runs          int64
	raceRuns, exceptionRuns   int64
	deadlockRuns, abortedRuns int64

	// statsRuns counts the records that carried RunStats; the rows derived
	// from them are measured only when it is non-zero (fleet records arrive
	// without RunStats).
	statsRuns                          int64
	steps, switches, decisions         int64
	postpones, resumes, livelockBreaks int64
	events                             [event.KindCount]int64
	wall                               time.Duration

	// firstRaceRun is the campaign-wide run index of the first race-creating
	// run (-1 until one happens): "how many runs did confirmation cost".
	firstRaceRun int64
	// traceCaptures counts runs for which a flight recording was archived.
	traceCaptures int64
	// findingsNew and findingsKnown tally corpus dedup verdicts on
	// confirming runs (zero for corpus-less campaigns).
	findingsNew, findingsKnown int64

	stepsToRace *Histogram
	enabled     *Histogram
}

// NewCampaignMetrics returns an empty aggregator.
func NewCampaignMetrics() *CampaignMetrics {
	return &CampaignMetrics{
		firstRaceRun: -1,
		stepsToRace:  NewHistogram(stepsToRaceBounds...),
		enabled:      NewHistogram(enabledBounds...),
	}
}

// Emit implements Sink: it aggregates one run record.
func (c *CampaignMetrics) Emit(rec RunRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	if rec.Phase == 1 {
		c.phase1Runs++
	}
	c.steps += int64(rec.Steps)
	// Wall time prefers the in-process RunStats (populated for the records
	// of a campaign that aggregates into this CampaignMetrics); decoded
	// JSONL and fleet records carry it in DurationNs when the campaign opted
	// into -timing.
	if rec.Stats != nil {
		c.wall += rec.Stats.Wall
	} else {
		c.wall += time.Duration(rec.DurationNs)
	}
	if rec.RaceCreated {
		c.raceRuns++
		if c.firstRaceRun < 0 {
			c.firstRaceRun = c.runs - 1
		}
		if rec.StepsToRace >= 0 {
			c.stepsToRace.Observe(float64(rec.StepsToRace))
		}
	}
	if len(rec.Exceptions) > 0 {
		c.exceptionRuns++
	}
	if rec.Deadlock {
		c.deadlockRuns++
	}
	if rec.Aborted {
		c.abortedRuns++
	}
	if rec.Trace != "" {
		c.traceCaptures++
	}
	switch rec.Finding {
	case "new":
		c.findingsNew++
	case "known":
		c.findingsKnown++
	}
	if rs := rec.Stats; rs != nil {
		c.statsRuns++
		c.switches += int64(rs.Switches)
		c.decisions += int64(rs.Decisions)
		c.postpones += int64(rs.Postpones)
		c.resumes += int64(rs.Resumes)
		c.livelockBreaks += int64(rs.LivelockBreaks)
		for k, n := range rs.Events {
			c.events[k] += n
		}
		c.mergeEnabledLocked(rs.Enabled)
	}
}

// mergeEnabledLocked folds one run's enabled-count histogram into the
// campaign's. Both use enabledBounds, so counts add index-wise.
func (c *CampaignMetrics) mergeEnabledLocked(s HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	o := &Histogram{bounds: s.Bounds, counts: s.Counts, count: s.Count, sum: s.Sum, min: s.Min, max: s.Max}
	c.enabled.Merge(o)
}

// Runs returns the number of aggregated runs.
func (c *CampaignMetrics) Runs() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// FirstRaceRun returns the campaign-wide index of the first confirming run
// (-1 when no run confirmed its target).
func (c *CampaignMetrics) FirstRaceRun() int64 {
	if c == nil {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firstRaceRun
}

// TraceCaptures returns the number of archived flight recordings.
func (c *CampaignMetrics) TraceCaptures() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traceCaptures
}

// Snapshot captures the campaign's metrics under stable names.
func (c *CampaignMetrics) Snapshot() Snapshot {
	var s Snapshot
	if c == nil {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Counters = []NamedCounter{
		{Name: "runs.total", Value: c.runs},
		{Name: "trials.total", Value: c.runs - c.phase1Runs},
		{Name: "runs.phase1", Value: c.phase1Runs},
		{Name: "runs.race", Value: c.raceRuns},
		{Name: "runs.exception", Value: c.exceptionRuns},
		{Name: "runs.deadlock", Value: c.deadlockRuns},
		{Name: "runs.aborted", Value: c.abortedRuns},
		{Name: "sched.steps", Value: c.steps},
		{Name: "traces.captured", Value: c.traceCaptures},
		{Name: "findings.new", Value: c.findingsNew},
		{Name: "findings.known", Value: c.findingsKnown},
	}
	s.Gauges = []NamedGauge{
		{Name: "race.first_run", Value: float64(c.firstRaceRun)},
		{Name: "wall.seconds", Value: c.wall.Seconds()},
	}
	if c.runs > 0 {
		s.Gauges = append(s.Gauges,
			NamedGauge{Name: "race.hit_rate", Value: float64(c.raceRuns) / float64(c.runs)})
	}
	// dedup_rate is emitted unconditionally (0 before any sighting), so a
	// corpus-less campaign's table has the same rows as a corpus campaign's.
	dedup := 0.0
	if sightings := c.findingsNew + c.findingsKnown; sightings > 0 {
		dedup = float64(c.findingsKnown) / float64(sightings)
	}
	s.Gauges = append(s.Gauges, NamedGauge{Name: "findings.dedup_rate", Value: dedup})
	s.Histograms = []NamedHistogram{{Name: "steps_to_race", Hist: c.stepsToRace.Snapshot()}}
	if c.statsRuns > 0 {
		s.Counters = append(s.Counters,
			NamedCounter{Name: "sched.switches", Value: c.switches},
			NamedCounter{Name: "policy.decisions", Value: c.decisions},
			NamedCounter{Name: "policy.postpones", Value: c.postpones},
			NamedCounter{Name: "policy.resumes", Value: c.resumes},
			NamedCounter{Name: "policy.livelock_breaks", Value: c.livelockBreaks})
		for k := event.Kind(0); k < event.KindCount; k++ {
			s.Counters = append(s.Counters, NamedCounter{Name: "events." + k.String(), Value: c.events[k]})
		}
		s.Histograms = append(s.Histograms, NamedHistogram{Name: "enabled_threads", Hist: c.enabled.Snapshot()})
	}
	s.sort()
	return s
}
