package fleetspan

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Caps keep the collector's memory bounded on long campaigns: these are
// diagnostic rings, not archives — the full trail lives in fleetspans.jsonl.
const (
	maxExecSamplesPerTarget = 256
	maxLeaseLatPerWorker    = 64
	maxSparklinePerWorker   = 32
	maxRequeueEvents        = 1024
)

// Config parameterizes NewCollector. The zero value works; health-detector
// knobs default to the documented values.
type Config struct {
	// Token is the campaign's deterministic identity prefix for span IDs
	// (build commit / tool+label — never a timestamp). "campaign" if empty.
	Token string
	// Clock overrides the system clock (tests).
	Clock Clock

	// StragglerFactor flags an in-flight unit whose lease has been out
	// longer than Factor × the target's p95 completed exec time (default 4;
	// needs StragglerMinSamples completed samples for the target, default 3).
	StragglerFactor     float64
	StragglerMinSamples int
	// StormWindow/StormThreshold flag a requeue storm: at least Threshold
	// requeues (default 3) within the trailing Window (default 60s).
	StormWindow    time.Duration
	StormThreshold int
	// TrendFactor flags a worker whose recent lease-latency mean is at least
	// Factor × its earlier mean (default 2; needs TrendMinSamples stitched
	// samples, default 6).
	TrendFactor     float64
	TrendMinSamples int
}

func (c *Config) applyDefaults() {
	if c.Token == "" {
		c.Token = "campaign"
	}
	if c.Clock == nil {
		c.Clock = systemClock{}
	}
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = 4
	}
	if c.StragglerMinSamples <= 0 {
		c.StragglerMinSamples = 3
	}
	if c.StormWindow <= 0 {
		c.StormWindow = time.Minute
	}
	if c.StormThreshold <= 0 {
		c.StormThreshold = 3
	}
	if c.TrendFactor <= 0 {
		c.TrendFactor = 2
	}
	if c.TrendMinSamples <= 0 {
		c.TrendMinSamples = 6
	}
}

// unitMeta is a unit's immutable identity, registered at first queue time so
// late/dropped results can still be attributed.
type unitMeta struct {
	round       int
	targetIndex int
	target      string
}

// attempt is one in-flight lease: the trail under construction.
type attempt struct {
	trail UnitTrail
}

// workerState is the collector's per-worker book: the clock-offset estimate
// and the latency rings the health detectors read.
type workerState struct {
	// offsetNs maps worker UnixNano onto coordinator UnixNano
	// (coord ≈ worker + offset). Minimum over observed one-way deltas —
	// every sample is true skew plus nonnegative network delay, so the
	// minimum is the tightest upper bound available without a reverse path.
	offsetNs int64
	offsetOK bool
	// leaseLatNs rings stitched lease latencies (grant → worker receipt).
	leaseLatNs []int64
	// execRecentNs rings recent exec durations for the dashboard sparkline.
	execRecentNs []int64
	units        int
}

// requeueEvent is one lease expiry, for storm detection.
type requeueEvent struct {
	atNs   int64
	worker string
}

// Collector is the coordinator-side flight recorder. All methods are no-ops
// on a nil receiver — the untraced fast path — and safe for concurrent use
// otherwise. It never calls back into the fleet layer, so hooks may be
// invoked while the caller holds its own locks.
type Collector struct {
	mu      sync.Mutex
	cfg     Config
	clock   Clock
	startNs int64 // coordinator UnixNano at collector creation

	units    map[string]unitMeta
	queuedAt map[string]int64 // latest queue-entry time per unit (rel ns)
	attemptN map[string]int
	active   map[string]*attempt
	workers  map[string]*workerState
	requeues []requeueEvent
	trails   []UnitTrail

	execByTarget    map[string][]int64
	unitsDone       int
	requeueTotal    int64
	lostToRequeueNs int64
}

// NewCollector builds a collector; its creation instant is time zero for
// every trail timestamp.
func NewCollector(cfg Config) *Collector {
	cfg.applyDefaults()
	return &Collector{
		cfg:          cfg,
		clock:        cfg.Clock,
		startNs:      cfg.Clock.Now().UnixNano(),
		units:        make(map[string]unitMeta),
		queuedAt:     make(map[string]int64),
		attemptN:     make(map[string]int),
		active:       make(map[string]*attempt),
		workers:      make(map[string]*workerState),
		execByTarget: make(map[string][]int64),
	}
}

// Enabled reports whether spans are being recorded (false on nil).
func (c *Collector) Enabled() bool { return c != nil }

// nowRel is the current coordinator time relative to collector start. Floors
// at 1 so "recorded" is always distinguishable from the zero "absent".
func (c *Collector) nowRel() int64 {
	ns := c.clock.Now().UnixNano() - c.startNs
	if ns < 1 {
		ns = 1
	}
	return ns
}

// spanID builds the unit's deterministic identity: token + round + unit
// index. No timestamps — a replayed campaign reproduces the same IDs.
func (c *Collector) spanID(round, targetIndex int) string {
	return fmt.Sprintf("%s/r%d/u%d", c.cfg.Token, round, targetIndex)
}

// Each lifecycle hook below is a nil-check wrapper small enough to inline
// plus an outlined body, so a disabled (nil) collector costs a compare and
// branch at the call site instead of a call.

// UnitQueued records a unit entering the pending queue (first enqueue or a
// campaign-driver re-add; requeues are recorded by UnitRequeued).
func (c *Collector) UnitQueued(unitID string, round, targetIndex int, target string) {
	if c != nil {
		c.unitQueued(unitID, round, targetIndex, target)
	}
}

func (c *Collector) unitQueued(unitID string, round, targetIndex int, target string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.units[unitID]; ok {
		return
	}
	c.units[unitID] = unitMeta{round: round, targetIndex: targetIndex, target: target}
	c.queuedAt[unitID] = c.nowRel()
}

// UnitLeased opens a new lease attempt for the unit.
func (c *Collector) UnitLeased(unitID, worker string, epoch int64) {
	if c != nil {
		c.unitLeased(unitID, worker, epoch)
	}
}

func (c *Collector) unitLeased(unitID, worker string, epoch int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	meta, ok := c.units[unitID]
	if !ok {
		return
	}
	c.attemptN[unitID]++
	now := c.nowRel()
	c.active[unitID] = &attempt{trail: UnitTrail{
		Schema:      SchemaVersion,
		SpanID:      c.spanID(meta.round, meta.targetIndex),
		UnitID:      unitID,
		Attempt:     c.attemptN[unitID],
		Round:       meta.round,
		TargetIndex: meta.targetIndex,
		Target:      meta.target,
		Worker:      worker,
		Epoch:       epoch,
		QueuedNs:    c.queuedAt[unitID],
		LeasedNs:    now,
	}}
	ws := c.worker(worker)
	ws.units++
}

// Heartbeat folds one worker heartbeat in: it refreshes the worker's clock
// offset estimate from the round-trip's one-way delta and counts against the
// unit's active attempt. sentUnixNs is the worker's local send time; zero
// (an untraced worker) still counts the heartbeat but teaches no offset.
func (c *Collector) Heartbeat(worker, unitID string, sentUnixNs int64) {
	if c != nil {
		c.heartbeat(worker, unitID, sentUnixNs)
	}
}

func (c *Collector) heartbeat(worker, unitID string, sentUnixNs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sentUnixNs != 0 {
		recvUnixNs := c.startNs + c.nowRel()
		c.worker(worker).observeOffset(recvUnixNs - sentUnixNs)
	}
	if at, ok := c.active[unitID]; ok && at.trail.Worker == worker {
		at.trail.Heartbeats++
	}
}

// UnitRequeued closes the unit's active attempt as requeued (lease expiry)
// and re-stamps its queue-entry time.
func (c *Collector) UnitRequeued(unitID string) {
	if c != nil {
		c.unitRequeued(unitID)
	}
}

func (c *Collector) unitRequeued(unitID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.nowRel()
	if at, ok := c.active[unitID]; ok {
		at.trail.Outcome = OutcomeRequeued
		at.trail.EndNs = now
		if at.trail.LeasedNs > 0 {
			c.lostToRequeueNs += now - at.trail.LeasedNs
		}
		c.trails = append(c.trails, at.trail)
		delete(c.active, unitID)
		c.requeueTotal++
		c.requeues = append(c.requeues, requeueEvent{atNs: now, worker: at.trail.Worker})
		if len(c.requeues) > maxRequeueEvents {
			c.requeues = c.requeues[len(c.requeues)-maxRequeueEvents:]
		}
	}
	c.queuedAt[unitID] = now
}

// UnitResult records a result submission. An accepted result stamps the
// active attempt and stitches the worker's sub-spans onto the coordinator
// clock; a rejected one is recorded as a dropped attempt so wasted work is
// visible in the trail.
func (c *Collector) UnitResult(unitID, worker string, epoch int64, accepted bool, reason string, spans *WorkerSpans) {
	if c != nil {
		c.unitResult(unitID, worker, epoch, accepted, reason, spans)
	}
}

func (c *Collector) unitResult(unitID, worker string, epoch int64, accepted bool, reason string, spans *WorkerSpans) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.nowRel()
	if !accepted {
		meta := c.units[unitID]
		n := c.attemptN[unitID]
		if n < 1 {
			n = 1
		}
		c.trails = append(c.trails, UnitTrail{
			Schema:      SchemaVersion,
			SpanID:      c.spanID(max(meta.round, 1), meta.targetIndex),
			UnitID:      unitID,
			Attempt:     n,
			Round:       max(meta.round, 1),
			TargetIndex: meta.targetIndex,
			Target:      orUnknown(meta.target),
			Worker:      worker,
			Epoch:       epoch,
			Outcome:     OutcomeDropped,
			DropReason:  reason,
			ResultNs:    now,
			EndNs:       now,
		})
		return
	}
	at, ok := c.active[unitID]
	if !ok || at.trail.Worker != worker || at.trail.Epoch != epoch {
		return
	}
	at.trail.ResultNs = now
	if spans != nil {
		c.stitchLocked(&at.trail, worker, spans)
	}
}

// UnitIngested closes the unit's attempt as ingested — the merge into the
// authoritative corpus happened. Exec-duration books for straggler detection
// and the worker sparkline are fed here.
func (c *Collector) UnitIngested(unitID string) {
	if c != nil {
		c.unitIngested(unitID)
	}
}

func (c *Collector) unitIngested(unitID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	at, ok := c.active[unitID]
	if !ok {
		return
	}
	now := c.nowRel()
	at.trail.Outcome = OutcomeIngested
	at.trail.IngestedNs = now
	at.trail.EndNs = now
	if at.trail.ResultNs == 0 {
		at.trail.ResultNs = now
	}
	c.trails = append(c.trails, at.trail)
	delete(c.active, unitID)
	c.unitsDone++

	exec := at.trail.ExecNs()
	if exec > 0 {
		tgt := at.trail.Target
		c.execByTarget[tgt] = appendCapped(c.execByTarget[tgt], exec, maxExecSamplesPerTarget)
		if ws, ok := c.workers[at.trail.Worker]; ok {
			ws.execRecentNs = appendCapped(ws.execRecentNs, exec, maxSparklinePerWorker)
		}
	}
}

// stitchLocked maps the worker's absolute sub-span timestamps onto the
// coordinator clock and clamps each into its causal window, so
// leased ≤ leaseRecv ≤ execStart ≤ execEnd ≤ posted ≤ result holds no
// matter how fast, slow, or backwards the worker's clock ran.
func (c *Collector) stitchLocked(t *UnitTrail, worker string, spans *WorkerSpans) {
	if spans.ExecStartNs == 0 && spans.ExecEndNs == 0 {
		return
	}
	// Offset estimate: the heartbeat-taught minimum when available, tightened
	// by the result POST itself (recv − posted is skew + upload delay, another
	// upper bound on skew).
	recvUnixNs := c.startNs + t.ResultNs
	off := recvUnixNs - spans.PostedNs
	if ws, ok := c.workers[worker]; ok && ws.offsetOK && ws.offsetNs < off {
		off = ws.offsetNs
	}
	t.OffsetNs = off
	mapTs := func(workerNs int64) int64 { return workerNs + off - c.startNs }

	lo, hi := t.LeasedNs, t.ResultNs
	clamp := func(ns int64) int64 {
		was := ns
		if ns < lo {
			ns = lo
		}
		if ns > hi {
			ns = hi
		}
		if ns != was {
			t.Clamped = true
		}
		lo = ns // each step floors the next: causal chain by construction
		return ns
	}
	t.LeaseRecvNs = clamp(mapTs(spans.LeaseRecvNs))
	t.ExecStartNs = clamp(mapTs(spans.ExecStartNs))
	t.ExecEndNs = clamp(mapTs(spans.ExecEndNs))
	t.PostedNs = clamp(mapTs(spans.PostedNs))

	if ws := c.worker(worker); true {
		ws.leaseLatNs = appendCapped(ws.leaseLatNs, t.LeaseRecvNs-t.LeasedNs, maxLeaseLatPerWorker)
	}
}

// Trails snapshots every closed attempt, sorted by unit coordinates then
// attempt — the stable order fleetspans.jsonl is written in.
func (c *Collector) Trails() []UnitTrail {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := append([]UnitTrail(nil), c.trails...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Round != b.Round {
			return a.Round < b.Round
		}
		if a.TargetIndex != b.TargetIndex {
			return a.TargetIndex < b.TargetIndex
		}
		if a.Attempt != b.Attempt {
			return a.Attempt < b.Attempt
		}
		return a.EndNs < b.EndNs
	})
	return out
}

// worker returns (creating) the per-worker book.
func (c *Collector) worker(name string) *workerState {
	ws, ok := c.workers[name]
	if !ok {
		ws = &workerState{}
		c.workers[name] = ws
	}
	return ws
}

// observeOffset folds one one-way delta (recv − sent = skew + delay ≥ skew)
// into the minimum-tracking estimate.
func (w *workerState) observeOffset(deltaNs int64) {
	if !w.offsetOK || deltaNs < w.offsetNs {
		w.offsetNs = deltaNs
		w.offsetOK = true
	}
}

// appendCapped appends keeping at most cap trailing samples.
func appendCapped(s []int64, v int64, capN int) []int64 {
	s = append(s, v)
	if len(s) > capN {
		s = s[len(s)-capN:]
	}
	return s
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
