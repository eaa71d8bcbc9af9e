package sched

import "time"

// The per-run performance profile (Config.Prof). Two rules hold (see
// DESIGN.md, "Scheduler performance observatory"):
//
//   - Zero-overhead off switch. Every probe site carries one nil check
//     (`if s.prof != nil`); with no ProfTrial attached the hot path is
//     byte-for-byte the unprofiled one.
//   - Probes never perturb the schedule. Recording reads the monotonic
//     clock and writes into preallocated fixed-size arrays on the goroutine
//     holding the step; nothing draws randomness, blocks, allocates, or
//     communicates. A run profiled and unprofiled replays the identical
//     schedule.
//
// Aggregation across runs and the Perfetto export live in internal/schedprof.

// NumOpKinds is the number of op kinds, OpBegin through OpInterrupt.
const NumOpKinds = int(OpInterrupt) + 1

// Phase marks a ProfTrial records, indexes into ProfTrial.Phase.
const (
	// PhaseLoopEnter marks the end of startup: threads spawned and parked,
	// the decision loop about to take its first round.
	PhaseLoopEnter = iota
	// PhaseLoopExit marks the decision loop returning (normal termination,
	// deadlock, or step-limit abort), teardown about to begin.
	PhaseLoopExit
	// PhaseDone marks the run complete (result built, all goroutines dead).
	PhaseDone
	// NumPhases is the number of phase marks.
	NumPhases
)

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
	// Kind is the op kind (an OpKind).
	Kind int32 `json:"kind"`
	// Step is the scheduler step the grant executed as.
	Step int32 `json:"step"`
}

// ProfCounts are a profile's exact totals. A ProfTrial keeps one run's;
// schedprof.Collector sums them campaign-wide with Add.
type ProfCounts struct {
	// Count, WaitSum and SvcSum are, per op kind, the grants and the sums
	// of their wait and service nanoseconds (see Span).
	Count   [NumOpKinds]int64
	WaitSum [NumOpKinds]int64
	SvcSum  [NumOpKinds]int64
	// Enabled[n] counts the decision rounds whose policy saw n enabled
	// threads (the last bucket: at least len(Enabled)-1).
	Enabled [enabledCap + 1]int64
	// Rounds counts decision rounds, Empty those that granted nothing, and
	// Forced the stall-breaking grants the scheduler forced past them.
	Rounds, Empty, Forced int64
	// Switches counts grants whose thread differed from the previous
	// grant: the run's context switches (Result.Switches).
	Switches int64
	// Actions counts the policy's actions by kind (View.Act): postpones,
	// resumes, livelock breaks, races and violations.
	Actions [NumActionKinds]int64
}

// Add adds o's totals to c.
func (c *ProfCounts) Add(o *ProfCounts) {
	for k := range c.Count {
		c.Count[k] += o.Count[k]
		c.WaitSum[k] += o.WaitSum[k]
		c.SvcSum[k] += o.SvcSum[k]
	}
	for i, n := range o.Enabled {
		c.Enabled[i] += n
	}
	for k, n := range o.Actions {
		c.Actions[k] += n
	}
	c.Rounds += o.Rounds
	c.Empty += o.Empty
	c.Forced += o.Forced
	c.Switches += o.Switches
}

// ProfTrial is one run's performance profile: a fixed-size ring of the most
// recent grant spans plus exact totals, written only by the run it is
// attached to (Config.Prof).
type ProfTrial struct {
	Name string
	Seed int64
	// Threads holds the threads' debug names by id.
	Threads []string
	// Phase holds the phase marks (PhaseLoopEnter...), in nanoseconds since
	// the trial started; 0 until stamped.
	Phase [NumPhases]int64
	ProfCounts

	begin time.Time
	ring  []Span
	n     int64 // spans ever recorded; ring slot = n % len(ring)
}

// NewProfTrial creates a trial whose span ring holds ringSize spans
// (ringSize > 0). The clock starts now.
func NewProfTrial(name string, seed int64, ringSize int) *ProfTrial {
	return &ProfTrial{Name: name, Seed: seed, begin: time.Now(), ring: make([]Span, ringSize)}
}

// Reset clears the trial for reuse under a new name and seed and restarts
// its clock; the ring keeps its capacity and its stale contents, which
// Spans() == 0 marks dead.
func (t *ProfTrial) Reset(name string, seed int64) {
	t.Name, t.Seed, t.begin = name, seed, time.Now()
	t.n = 0
	t.Threads = t.Threads[:0]
	t.Phase = [NumPhases]int64{}
	t.ProfCounts = ProfCounts{}
}

// Spans returns how many spans were recorded, including any that wrapped
// out of the ring (0 for nil).
func (t *ProfTrial) Spans() int64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (t *ProfTrial) Dropped() int64 {
	if d := t.Spans() - int64(len(t.Ring())); d > 0 {
		return d
	}
	return 0
}

// Ring returns the live span ring, not a copy: span i of Spans() sits in
// slot i % len(Ring()).
func (t *ProfTrial) Ring() []Span {
	if t == nil {
		return nil
	}
	return t.ring
}

// clock returns nanoseconds since the trial started.
func (t *ProfTrial) clock() int64 { return int64(time.Since(t.begin)) }

// threadName records thread id's debug name (called at fork, not on the
// hot path). Ids arrive in creation order, so the table grows append-only.
func (t *ProfTrial) threadName(id int, name string) {
	for len(t.Threads) <= id {
		t.Threads = append(t.Threads, "")
	}
	t.Threads[id] = name
}

// round records one decision-loop round: the enabled-set size the policy
// saw and how many grants it returned (0 = an empty round).
func (t *ProfTrial) round(enabled, grants int) {
	t.Enabled[min(enabled, enabledCap)]++
	t.Rounds++
	if grants == 0 {
		t.Empty++
	}
}

// grant records one granted op: kind/thread/step identify it, startNs is
// the grant time, waitNs the park->grant latency, durNs the
// grant->quiescence service time.
func (t *ProfTrial) grant(kind OpKind, thread, step int, startNs, waitNs, durNs int64) {
	waitNs = max(waitNs, 0)
	t.ring[t.n%int64(len(t.ring))] = Span{
		StartNs: startNs, WaitNs: waitNs, DurNs: durNs,
		Thread: int32(thread), Kind: int32(kind), Step: int32(step),
	}
	t.n++
	t.Count[kind]++
	t.WaitSum[kind] += waitNs
	t.SvcSum[kind] += durNs
}

// mark stamps phase mark p at the current clock.
func (t *ProfTrial) mark(p int) { t.Phase[p] = t.clock() }
