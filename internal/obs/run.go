package obs

import (
	"time"

	"racefuzzer/internal/event"
)

// enabledBounds buckets the enabled-thread count observed at each scheduling
// round; model programs rarely exceed a few dozen runnable threads.
var enabledBounds = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64}

// NewEnabledHistogram returns a histogram with the standard enabled-thread
// buckets: the per-run RunStats.Enabled form that CampaignMetrics merges.
func NewEnabledHistogram() *Histogram {
	// The bounds are sorted and never written, so every histogram shares them.
	return &Histogram{bounds: enabledBounds, counts: make([]int64, len(enabledBounds)+1)}
}

// RunStats is the immutable telemetry of one execution, attached to its
// RunRecord by the campaign pipelines when they observe.
type RunStats struct {
	// Steps is the number of scheduler steps (granted operations).
	Steps int `json:"steps"`
	// Switches counts grants whose thread differed from the previous grant —
	// the execution's context switches.
	Switches int `json:"switches"`
	// Decisions counts the race-directed policy's scheduling decisions
	// (zero under other policies).
	Decisions int `json:"decisions"`
	// Events tallies observer events by event.Kind.
	Events [event.KindCount]int64 `json:"events"`
	// Postpones, Resumes and LivelockBreaks are the race-directed policy's
	// postponed-set traffic (zero under other policies).
	Postpones      int `json:"postpones"`
	Resumes        int `json:"resumes"`
	LivelockBreaks int `json:"livelockBreaks"`
	// Enabled is the histogram of enabled-thread counts per policy round.
	Enabled HistogramSnapshot `json:"enabled"`
	// Wall is the execution's wall-clock duration.
	Wall time.Duration `json:"wallNs"`
}
