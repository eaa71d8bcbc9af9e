// Package schedprof aggregates the scheduler's per-run performance profiles
// (sched.ProfTrial, attached as sched.Config.Prof) campaign-wide into obs
// histograms, and exports one run's timeline as a Chrome trace-event file
// (Perfetto, chrome://tracing). See DESIGN.md, "Scheduler performance
// observatory".
//
// A nil *Collector hands out nil trials, and the scheduler guards every
// probe site with one nil check, so a campaign with profiling off pays
// nothing beyond those checks.
package schedprof

import (
	"sync"

	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
)

// Trial is one execution's profile; see sched.ProfTrial.
type Trial = sched.ProfTrial

// Span is one granted op on a trial's timeline; see sched.Span.
type Span = sched.Span

// phaseNames names the derived phase durations, in report order.
var phaseNames = [sched.NumPhases]string{"startup", "loop", "teardown"}

// DefaultRingSize is the per-trial span-ring capacity used by Collector
// trials: large enough to hold every span of the repository's model
// programs, small enough to pool freely. Older spans are overwritten (and
// counted as dropped) when a trial outgrows it.
const DefaultRingSize = 4096

// NewTrial creates a standalone trial (no collector) with the given span
// ring capacity; ringSize <= 0 means DefaultRingSize. The clock starts now.
func NewTrial(name string, seed int64, ringSize int) *Trial {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return sched.NewProfTrial(name, seed, ringSize)
}

// latencyBounds are the wait/service histogram bucket bounds in
// nanoseconds (100ns .. 100ms, then overflow).
var latencyBounds = []float64{
	100, 250, 500, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4,
	1e5, 2.5e5, 5e5, 1e6, 5e6, 2.5e7, 1e8,
}

// phaseBounds are the per-trial phase duration bucket bounds in
// nanoseconds (10µs .. 5s, then overflow).
var phaseBounds = []float64{1e4, 1e5, 5e5, 1e6, 5e6, 1e7, 5e7, 1e8, 5e8, 1e9, 5e9}

// Collector aggregates trials campaign-wide: per-op-kind wait/service
// histograms (ring-sampled), exact totals, enabled-set distribution and
// phase timings. Trials are pooled, so a steady-state campaign profiles
// without allocating. Safe for concurrent StartTrial/FinishTrial from
// parallel campaign workers; a nil *Collector hands out nil trials and
// reports an empty summary, so the whole chain is inert when profiling is
// off.
type Collector struct {
	ringSize int
	pool     sync.Pool

	mu      sync.Mutex
	trials  int64
	sampled int64
	dropped int64
	counts  sched.ProfCounts
	wait    [sched.NumOpKinds]*obs.Histogram
	svc     [sched.NumOpKinds]*obs.Histogram
	phases  [sched.NumPhases]*obs.Histogram
}

// NewCollector creates a collector with DefaultRingSize trial rings.
func NewCollector() *Collector {
	c := &Collector{ringSize: DefaultRingSize}
	for k := range c.wait {
		c.wait[k] = obs.NewHistogram(latencyBounds...)
		c.svc[k] = obs.NewHistogram(latencyBounds...)
	}
	for p := range c.phases {
		c.phases[p] = obs.NewHistogram(phaseBounds...)
	}
	return c
}

// StartTrial hands out a pooled trial for one execution (nil collector:
// nil trial). Attach it as sched.Config.Prof and return it via FinishTrial.
func (c *Collector) StartTrial(name string, seed int64) *Trial {
	if c == nil {
		return nil
	}
	if v := c.pool.Get(); v != nil {
		t := v.(*Trial)
		t.Reset(name, seed)
		return t
	}
	return NewTrial(name, seed, c.ringSize)
}

// FinishTrial folds a completed trial into the campaign aggregates and
// returns it to the pool. The trial must not be used afterwards. Nil
// collector or trial: no-op.
func (c *Collector) FinishTrial(t *Trial) {
	if c == nil || t == nil {
		return
	}
	ring, n := t.Ring(), t.Spans()
	m := min(n, int64(len(ring)))
	c.mu.Lock()
	c.trials++
	c.sampled += m
	c.dropped += n - m
	c.counts.Add(&t.ProfCounts)
	for _, sp := range ring[:m] {
		c.wait[sp.Kind].Observe(float64(sp.WaitNs))
		c.svc[sp.Kind].Observe(float64(sp.DurNs))
	}
	if ph := t.Phase; ph[sched.PhaseDone] > 0 {
		c.phases[0].Observe(float64(ph[sched.PhaseLoopEnter]))
		c.phases[1].Observe(float64(ph[sched.PhaseLoopExit] - ph[sched.PhaseLoopEnter]))
		c.phases[2].Observe(float64(ph[sched.PhaseDone] - ph[sched.PhaseLoopExit]))
	}
	c.mu.Unlock()
	c.pool.Put(t)
}

// LatencySummary is one latency distribution: the mean is exact (from
// running totals); the quantiles and max are estimated from the ring-sampled
// histogram, i.e. over the most recent DefaultRingSize spans of each trial.
type LatencySummary struct {
	MeanNs float64 `json:"meanNs"`
	P50    float64 `json:"p50Ns"`
	P90    float64 `json:"p90Ns"`
	P99    float64 `json:"p99Ns"`
	MaxNs  float64 `json:"maxNs"`
}

func latencySummary(count, sum int64, h *obs.Histogram) LatencySummary {
	s := h.Snapshot()
	out := LatencySummary{
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
		MaxNs: s.Max,
	}
	if count > 0 {
		out.MeanNs = float64(sum) / float64(count)
	}
	return out
}

// OpSummary is one op kind's aggregate latency profile.
type OpSummary struct {
	Kind    string         `json:"kind"`
	Count   int64          `json:"count"`
	Wait    LatencySummary `json:"wait"`
	Service LatencySummary `json:"service"`
}

// PhaseSummary is one trial phase's duration distribution.
type PhaseSummary struct {
	Phase  string  `json:"phase"`
	Count  int64   `json:"count"`
	MeanNs float64 `json:"meanNs"`
	P50    float64 `json:"p50Ns"`
	P99    float64 `json:"p99Ns"`
	MaxNs  float64 `json:"maxNs"`
}

// Summary is the collector's JSON-ready aggregate view: the payload of the
// observatory's /debug/perf and of benchsnap's latency_ns block.
type Summary struct {
	Trials       int64          `json:"trials"`
	Grants       int64          `json:"grants"`
	Rounds       int64          `json:"rounds"`
	EmptyRounds  int64          `json:"emptyRounds"`
	ForcedGrants int64          `json:"forcedGrants"`
	SampledSpans int64          `json:"sampledSpans"`
	DroppedSpans int64          `json:"droppedSpans"`
	EnabledMean  float64        `json:"enabledMean"`
	EnabledMax   int            `json:"enabledMax"`
	Ops          []OpSummary    `json:"ops"`
	Phases       []PhaseSummary `json:"phases,omitempty"`
}

// Summary builds the aggregate view; ops with no samples are omitted. Nil
// collector: zero summary.
func (c *Collector) Summary() Summary {
	if c == nil {
		return Summary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := Summary{
		Trials:       c.trials,
		Rounds:       c.counts.Rounds,
		EmptyRounds:  c.counts.Empty,
		ForcedGrants: c.counts.Forced,
		SampledSpans: c.sampled,
		DroppedSpans: c.dropped,
	}
	for k, n := range c.counts.Count {
		out.Grants += n
		if n == 0 {
			continue
		}
		out.Ops = append(out.Ops, OpSummary{
			Kind:    sched.OpKind(k).String(),
			Count:   n,
			Wait:    latencySummary(n, c.counts.WaitSum[k], c.wait[k]),
			Service: latencySummary(n, c.counts.SvcSum[k], c.svc[k]),
		})
	}
	var sizeSum, sizeN int64
	for size, n := range c.counts.Enabled {
		if n == 0 {
			continue
		}
		sizeSum += int64(size) * n
		sizeN += n
		out.EnabledMax = size
	}
	if sizeN > 0 {
		out.EnabledMean = float64(sizeSum) / float64(sizeN)
	}
	for p, h := range c.phases {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		out.Phases = append(out.Phases, PhaseSummary{
			Phase:  phaseNames[p],
			Count:  s.Count,
			MeanNs: s.Mean(),
			P50:    s.Quantile(0.50),
			P99:    s.Quantile(0.99),
			MaxNs:  s.Max,
		})
	}
	return out
}

// Trials returns how many trials have been folded in (0 for nil).
func (c *Collector) Trials() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trials
}
