// Package obs is the observability layer for the RaceFuzzer pipeline:
// dependency-free fixed-bucket histograms and metric snapshots (this
// file), structured JSONL run logs and their torn-tail reader (sink.go)
// and build provenance (provenance.go). Run records are folded into
// campaign totals by internal/analytics, live (-metrics) or from a saved
// log; per-run scheduler counts are the scheduler's own profile
// (sched.ProfTrial), aggregated by internal/schedprof.
//
// Two properties shape the design:
//
//   - Near-zero-cost off switch. Every probe method is safe on a nil
//     receiver and immediately returns; instrumented code (scheduler,
//     policies, pipelines) carries no flags and no conditionals beyond the
//     nil check the method itself performs. With no metrics attached, the
//     hot paths are byte-for-byte the pre-instrumentation ones.
//   - Probes never perturb the schedule. All recording happens synchronously
//     under the scheduler's lock at already-deterministic points; nothing
//     here draws randomness, blocks, or communicates. A campaign run with
//     metrics on and off therefore replays the identical schedules.
package obs

import (
	"fmt"
	"math"
	"sort"

	"racefuzzer/internal/report"
)

// Histogram is a fixed-bucket histogram over float64 samples. Bucket i
// counts samples v with v <= Bounds[i] (and > Bounds[i-1]); one overflow
// bucket counts samples above the last bound. Observe on a nil histogram is
// a no-op. A Histogram is not goroutine-safe; its owner serializes
// Observe and Snapshot.
type Histogram struct {
	bounds []float64
	counts []int64
	count  int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Snapshot returns an immutable copy of the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil || h.count == 0 {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// HistogramSnapshot is a point-in-time copy of a Histogram, serializable to
// JSON and renderable in metric tables.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []int64   `json:"counts,omitempty"` // len(Bounds)+1; last = overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Mean returns the sample mean (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket counts
// by linear interpolation within the bucket that holds the target rank — the
// standard Prometheus histogram_quantile estimator. The estimate is clamped
// to the observed [Min, Max] range so tiny samples don't report a bucket
// bound no sample reached; the overflow bucket yields Max. Returns 0 when
// the snapshot is empty and NaN-free for any q.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		seen += float64(c)
		if seen < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// Overflow bucket: no upper bound, report the observed max.
			return s.Max
		}
		lo := s.Min
		if i > 0 {
			lo = s.Bounds[i-1]
			if lo < s.Min {
				lo = s.Min
			}
		}
		hi := s.Bounds[i]
		if hi > s.Max {
			hi = s.Max
		}
		if hi < lo {
			return lo
		}
		within := (rank - (seen - float64(c))) / float64(c)
		return lo + (hi-lo)*within
	}
	return s.Max
}

// String renders the buckets compactly: "<=2:5 <=8:1 >8:0 (n=6 mean=2.3)".
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "(empty)"
	}
	out := ""
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		if i < len(s.Bounds) {
			out += fmt.Sprintf("<=%s:%d", compactFloat(s.Bounds[i]), c)
		} else {
			out += fmt.Sprintf(">%s:%d", compactFloat(s.Bounds[len(s.Bounds)-1]), c)
		}
	}
	return fmt.Sprintf("%s (n=%d mean=%.1f min=%s max=%s)",
		out, s.Count, s.Mean(), compactFloat(s.Min), compactFloat(s.Max))
}

func compactFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}

// NamedCounter is one counter in a Snapshot.
type NamedCounter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// NamedGauge is one gauge in a Snapshot.
type NamedGauge struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// NamedHistogram is one histogram in a Snapshot.
type NamedHistogram struct {
	Name string            `json:"name"`
	Hist HistogramSnapshot `json:"hist"`
}

// Snapshot is an immutable view of a metric set: JSON-serializable and
// renderable as a report table.
type Snapshot struct {
	Counters   []NamedCounter   `json:"counters,omitempty"`
	Gauges     []NamedGauge     `json:"gauges,omitempty"`
	Histograms []NamedHistogram `json:"histograms,omitempty"`
}

// Table renders the snapshot as an aligned metric/value table.
func (s Snapshot) Table(title string) *report.Table {
	t := report.NewTable(title, "metric", "value")
	for _, c := range s.Counters {
		t.AddRow(c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		t.AddRow(g.Name, fmt.Sprintf("%.4g", g.Value))
	}
	for _, h := range s.Histograms {
		t.AddRow(h.Name, h.Hist.String())
	}
	return t
}
