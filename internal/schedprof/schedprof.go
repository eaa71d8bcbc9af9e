// Package schedprof is the scheduler's performance profiler: an
// allocation-free, ring-buffer timeline of the grant loop's hot path,
// aggregated post-trial into obs histograms and exportable as a Chrome
// trace-event file (Perfetto, chrome://tracing).
//
// It follows the same two design rules as the obs package (see DESIGN.md,
// "Scheduler performance observatory"):
//
//   - Zero-overhead off switch. internal/sched carries one nil check per
//     probe site (`if s.prof != nil`); with no Trial attached the hot path
//     is byte-for-byte the unprofiled one. Every Trial method is also
//     nil-safe, so call sites outside the scheduler need no guards.
//   - Probes never perturb the schedule. Recording reads the monotonic
//     clock and writes into preallocated fixed-size arrays under the
//     scheduler's lock; nothing draws randomness, blocks, allocates,
//     or communicates. A trial profiled and unprofiled replays the
//     identical schedule.
//
// The package deliberately does not import internal/sched (sched imports
// schedprof); op kinds arrive as plain ints and are named by a table that a
// sched-side test cross-checks against OpKind.String.
package schedprof

import (
	"sync"
	"time"

	"racefuzzer/internal/obs"
)

// NumOpKinds is the number of scheduler op kinds (sched.OpBegin through
// sched.OpInterrupt). Kept in lockstep with internal/sched by a cross-check
// test there; Grant calls with out-of-range kinds are dropped.
const NumOpKinds = 13

// kindNames mirrors sched.OpKind.String for kinds 0..NumOpKinds-1.
var kindNames = [NumOpKinds]string{
	"begin", "read", "write", "lock", "unlock", "wait-enter", "wait-resume",
	"notify", "notifyAll", "fork", "join", "nop", "interrupt",
}

// KindName returns the display name of op kind k ("begin", "read", ...).
func KindName(k int) string {
	if k < 0 || k >= NumOpKinds {
		return "op(?)"
	}
	return kindNames[k]
}

// Phase indexes the per-trial phase marks the scheduler records.
type Phase int

const (
	// PhaseLoopEnter marks the end of startup: threads spawned and parked,
	// the decision loop about to take its first round.
	PhaseLoopEnter Phase = iota
	// PhaseLoopExit marks the decision loop returning (normal termination,
	// deadlock, or step-limit abort), teardown about to begin.
	PhaseLoopExit
	// PhaseDone marks the run complete (result built, all goroutines dead).
	PhaseDone
	numPhases
)

// phaseNames names the derived phase durations, in report order.
var phaseNames = [numPhases]string{"startup", "loop", "teardown"}

// DefaultRingSize is the per-trial span-ring capacity used by Collector
// trials: large enough to hold every span of the repository's model
// programs, small enough to pool freely. Older spans are overwritten (and
// counted as dropped) when a trial outgrows it.
const DefaultRingSize = 4096

// enabledCap caps the exact enabled-set-size distribution; rounds with more
// enabled threads than this are counted in the top bucket.
const enabledCap = 64

// Span is one granted op on the timeline. Times are nanoseconds relative to
// the trial's start.
type Span struct {
	// StartNs is the grant time (the scheduler decided to run the op).
	StartNs int64 `json:"startNs"`
	// WaitNs is how long the thread was parked before this grant
	// (park -> grant; for blocked ops this includes the blocked time).
	WaitNs int64 `json:"waitNs"`
	// DurNs is the service time: grant -> quiescence, covering the op's
	// synchronization effect plus the thread's uninstrumented run to its
	// next yield.
	DurNs int64 `json:"durNs"`
	// Thread is the granted thread's id (T0 = main).
	Thread int32 `json:"thread"`
	// Kind is the op kind (see KindName).
	Kind int32 `json:"kind"`
	// Step is the scheduler step the grant executed as.
	Step int32 `json:"step"`
}

// Trial is the per-execution profile: a fixed-size span ring plus exact
// per-kind totals, written only under the scheduler lock of the run it is
// attached to (sched.Config.Prof). Obtain one from Collector.StartTrial
// (pooled, aggregated on FinishTrial) or NewTrial (standalone, for timeline
// export). All methods are nil-safe.
type Trial struct {
	name  string
	seed  int64
	begin time.Time

	ring []Span
	n    int64 // spans ever recorded; ring slot = n % len(ring)

	count   [NumOpKinds]int64
	waitSum [NumOpKinds]int64
	svcSum  [NumOpKinds]int64

	enabled [enabledCap + 1]int64
	rounds  int64
	empty   int64
	forced  int64

	phase   [numPhases]int64
	threads []string
}

// NewTrial creates a standalone trial (no collector) with the given span
// ring capacity; ringSize <= 0 means DefaultRingSize. The clock starts now.
func NewTrial(name string, seed int64, ringSize int) *Trial {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Trial{name: name, seed: seed, begin: time.Now(), ring: make([]Span, ringSize)}
}

// reset clears the trial for reuse; ring contents are left stale (n == 0
// marks them dead).
func (t *Trial) reset(name string, seed int64) {
	t.name, t.seed, t.begin = name, seed, time.Now()
	t.n = 0
	t.count = [NumOpKinds]int64{}
	t.waitSum = [NumOpKinds]int64{}
	t.svcSum = [NumOpKinds]int64{}
	t.enabled = [enabledCap + 1]int64{}
	t.rounds, t.empty, t.forced = 0, 0, 0
	t.phase = [numPhases]int64{}
	t.threads = t.threads[:0]
}

// Clock returns nanoseconds since the trial started (0 for nil). The
// scheduler stamps park times with it so Grant can compute wait latency.
func (t *Trial) Clock() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.begin))
}

// ThreadName records thread id's debug name (called at fork, not on the
// hot path). Ids arrive in creation order, so the table grows append-only.
func (t *Trial) ThreadName(id int, name string) {
	if t == nil {
		return
	}
	for len(t.threads) <= id {
		t.threads = append(t.threads, "")
	}
	t.threads[id] = name
}

// Round records one decision-loop round: the enabled-set size the policy
// saw and how many grants it returned (0 = an empty round).
func (t *Trial) Round(enabled, grants int) {
	if t == nil {
		return
	}
	if enabled > enabledCap {
		enabled = enabledCap
	}
	t.enabled[enabled]++
	t.rounds++
	if grants == 0 {
		t.empty++
	}
}

// ForcedGrant counts one stall-breaking forced grant (the scheduler pushing
// past a policy that returned empty rounds for too long).
func (t *Trial) ForcedGrant() {
	if t != nil {
		t.forced++
	}
}

// Grant records one granted op: kind/thread/step identify it, startNs is
// the grant time, waitNs the park->grant latency, durNs the
// grant->quiescence service time. Out-of-range kinds are dropped.
func (t *Trial) Grant(kind, thread, step int, startNs, waitNs, durNs int64) {
	if t == nil || uint(kind) >= NumOpKinds {
		return
	}
	if waitNs < 0 {
		waitNs = 0
	}
	t.ring[t.n%int64(len(t.ring))] = Span{
		StartNs: startNs, WaitNs: waitNs, DurNs: durNs,
		Thread: int32(thread), Kind: int32(kind), Step: int32(step),
	}
	t.n++
	t.count[kind]++
	t.waitSum[kind] += waitNs
	t.svcSum[kind] += durNs
}

// Mark stamps phase boundary p at the current clock.
func (t *Trial) Mark(p Phase) {
	if t == nil || p < 0 || p >= numPhases {
		return
	}
	t.phase[p] = t.Clock()
}

// Spans returns how many spans were recorded (including any that wrapped
// out of the ring).
func (t *Trial) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (t *Trial) Dropped() int64 {
	if t == nil {
		return 0
	}
	if d := t.n - int64(len(t.ring)); d > 0 {
		return d
	}
	return 0
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
	spans   int64
	sampled int64
	dropped int64
	rounds  int64
	empty   int64
	forced  int64

	count   [NumOpKinds]int64
	waitSum [NumOpKinds]int64
	svcSum  [NumOpKinds]int64
	wait    [NumOpKinds]*obs.Histogram
	svc     [NumOpKinds]*obs.Histogram

	enabled [enabledCap + 1]int64
	phases  [numPhases]*obs.Histogram
}

// NewCollector creates a collector with DefaultRingSize trial rings.
func NewCollector() *Collector {
	c := &Collector{ringSize: DefaultRingSize}
	for k := 0; k < NumOpKinds; k++ {
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
		t.reset(name, seed)
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
	m := t.n
	if r := int64(len(t.ring)); m > r {
		m = r
	}
	c.mu.Lock()
	c.trials++
	c.spans += t.n
	c.sampled += m
	c.dropped += t.n - m
	c.rounds += t.rounds
	c.empty += t.empty
	c.forced += t.forced
	for i := int64(0); i < m; i++ {
		sp := &t.ring[i]
		c.wait[sp.Kind].Observe(float64(sp.WaitNs))
		c.svc[sp.Kind].Observe(float64(sp.DurNs))
	}
	for k := 0; k < NumOpKinds; k++ {
		c.count[k] += t.count[k]
		c.waitSum[k] += t.waitSum[k]
		c.svcSum[k] += t.svcSum[k]
	}
	for i, n := range t.enabled {
		c.enabled[i] += n
	}
	if t.phase[PhaseDone] > 0 {
		c.phases[0].Observe(float64(t.phase[PhaseLoopEnter]))
		c.phases[1].Observe(float64(t.phase[PhaseLoopExit] - t.phase[PhaseLoopEnter]))
		c.phases[2].Observe(float64(t.phase[PhaseDone] - t.phase[PhaseLoopExit]))
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
		Rounds:       c.rounds,
		EmptyRounds:  c.empty,
		ForcedGrants: c.forced,
		SampledSpans: c.sampled,
		DroppedSpans: c.dropped,
	}
	for k := 0; k < NumOpKinds; k++ {
		n := c.count[k]
		out.Grants += n
		if n == 0 {
			continue
		}
		out.Ops = append(out.Ops, OpSummary{
			Kind:    kindNames[k],
			Count:   n,
			Wait:    latencySummary(n, c.waitSum[k], c.wait[k]),
			Service: latencySummary(n, c.svcSum[k], c.svc[k]),
		})
	}
	var sizeSum, sizeN int64
	for size, n := range c.enabled {
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
