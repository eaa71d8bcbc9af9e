// Package obs is the observability layer for the RaceFuzzer pipeline:
// dependency-free counters, gauges and fixed-bucket histograms (this file),
// per-run scheduler probes (run.go), campaign-level aggregation
// (campaign.go), structured JSONL run logs (sink.go) and periodic progress
// reporting (progress.go).
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
	"sync"
	"sync/atomic"

	"racefuzzer/internal/report"
)

// Counter is a monotonically increasing int64. The zero value is ready to
// use; all methods are nil-safe no-ops so callers need no guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64. The zero value is ready to use; methods are
// nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram over float64 samples. Bucket i
// counts samples v with v <= Bounds[i] (and > Bounds[i-1]); one overflow
// bucket counts samples above the last bound. Observe on a nil histogram is
// a no-op. A Histogram is not goroutine-safe; each run owns its own and
// campaign merging happens on one goroutine.
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

// Merge adds another histogram's samples into h. The two must have equal
// bounds (as produced by the same constructor call); Merge panics otherwise.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	if len(h.bounds) != len(o.bounds) {
		panic("obs: merging histograms with different buckets")
	}
	for i, b := range h.bounds {
		if b != o.bounds[i] {
			panic("obs: merging histograms with different buckets")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
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

// Registry is a named collection of metrics. Lookups get-or-create, so
// instrumentation sites need no registration step. A nil *Registry returns
// nil metrics from every lookup, and nil metrics no-op — the whole chain is
// inert when observability is off.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil for a
// nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with bounds on first
// use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every registered metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, NamedCounter{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, NamedGauge{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, NamedHistogram{Name: name, Hist: h.Snapshot()})
	}
	s.sort()
	return s
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

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
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
