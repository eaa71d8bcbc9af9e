package obs

import (
	"sync"
	"time"
)

// stepsToRaceBounds buckets the scheduler step at which a directed run
// created its first race — the "how deep into the execution does the pair
// meet" distribution behind the paper's probability claims.
var stepsToRaceBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000}

// CampaignMetrics folds run records over a whole campaign: phase-1
// observations plus every phase-2 directed run across all targets. It
// implements Sink, so a campaign attaches it beside its run log. The
// scheduler's own counts (rounds, grants, switches, policy actions) are
// the schedprof collector's, not this fold's.
//
// All methods are nil-safe; a nil *CampaignMetrics records nothing.
type CampaignMetrics struct {
	mu sync.Mutex

	runs, phase1Runs          int64
	raceRuns, exceptionRuns   int64
	deadlockRuns, abortedRuns int64
	steps                     int64

	// wall sums the records' DurationNs; timed reports that one carried it
	// (-timing), the only case in which the wall.seconds gauge is measured.
	wall  time.Duration
	timed bool

	// firstRaceRun is the campaign-wide run index of the first race-creating
	// run (-1 until one happens): "how many runs did confirmation cost".
	firstRaceRun int64
	// traceCaptures counts runs for which a flight recording was archived.
	traceCaptures int64
	// findingsNew and findingsKnown tally corpus dedup verdicts on
	// confirming runs (zero for corpus-less campaigns).
	findingsNew, findingsKnown int64

	stepsToRace *Histogram
}

// NewCampaignMetrics returns an empty aggregator.
func NewCampaignMetrics() *CampaignMetrics {
	return &CampaignMetrics{
		firstRaceRun: -1,
		stepsToRace:  NewHistogram(stepsToRaceBounds...),
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
	if rec.DurationNs > 0 {
		c.wall += time.Duration(rec.DurationNs)
		c.timed = true
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
	s.Gauges = []NamedGauge{{Name: "race.first_run", Value: float64(c.firstRaceRun)}}
	if c.timed {
		s.Gauges = append(s.Gauges, NamedGauge{Name: "wall.seconds", Value: c.wall.Seconds()})
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
	s.sort()
	return s
}
