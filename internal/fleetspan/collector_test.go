package fleetspan

import (
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock; tests drive every transition.
type fakeClock struct{ ns int64 }

func (c *fakeClock) Now() time.Time          { return time.Unix(0, c.ns) }
func (c *fakeClock) advance(d time.Duration) { c.ns += d.Nanoseconds() }

const baseNs = int64(1_000_000_000_000)

func newTestCollector(cfg Config) (*Collector, *fakeClock) {
	clk := &fakeClock{ns: baseNs}
	cfg.Clock = clk
	if cfg.Token == "" {
		cfg.Token = "test"
	}
	return NewCollector(cfg), clk
}

// runUnit drives one unit through the full happy path with a skewed worker
// clock: lease at leaseAt, heartbeat teaching the offset, worker spans at
// fixed coordinator instants shifted by skewNs, result, ingest.
func runUnit(c *Collector, clk *fakeClock, unitID string, round, ti int, target, worker string, epoch int64, skewNs int64) {
	c.UnitQueued(unitID, round, ti, target)
	clk.advance(10 * time.Millisecond)
	c.UnitLeased(unitID, worker, epoch)
	leasedUnix := clk.ns
	clk.advance(5 * time.Millisecond)
	c.Heartbeat(worker, unitID, clk.ns+skewNs)
	spans := &WorkerSpans{
		LeaseRecvNs: leasedUnix + int64(1*time.Millisecond) + skewNs,
		ExecStartNs: leasedUnix + int64(2*time.Millisecond) + skewNs,
		ExecEndNs:   leasedUnix + int64(10*time.Millisecond) + skewNs,
		PostedNs:    leasedUnix + int64(11*time.Millisecond) + skewNs,
	}
	clk.advance(7 * time.Millisecond) // result arrives 12ms after lease
	c.UnitResult(unitID, worker, epoch, true, "", spans)
	clk.advance(1 * time.Millisecond)
	c.UnitIngested(unitID)
}

func soleTrail(t *testing.T, c *Collector) UnitTrail {
	t.Helper()
	trails := c.Trails()
	if len(trails) != 1 {
		t.Fatalf("got %d trails, want 1: %+v", len(trails), trails)
	}
	if err := trails[0].Validate(); err != nil {
		t.Fatalf("trail invalid: %v", err)
	}
	return trails[0]
}

func TestStitchingExactWithFastWorkerClock(t *testing.T) {
	c, clk := newTestCollector(Config{})
	const skew = int64(3 * time.Second) // worker clock 3s ahead
	runUnit(c, clk, "r1-t0", 1, 0, "ping", "w1", 7, skew)
	tr := soleTrail(t, c)

	if tr.SpanID != "test/r1/u0" {
		t.Errorf("spanID %q, want test/r1/u0", tr.SpanID)
	}
	leased := tr.LeasedNs
	// The heartbeat's one-way delta was pure skew (no simulated network
	// delay), so stitching recovers the worker instants exactly.
	wantRel := func(d time.Duration) int64 { return leased + d.Nanoseconds() }
	if tr.LeaseRecvNs != wantRel(1*time.Millisecond) ||
		tr.ExecStartNs != wantRel(2*time.Millisecond) ||
		tr.ExecEndNs != wantRel(10*time.Millisecond) ||
		tr.PostedNs != wantRel(11*time.Millisecond) {
		t.Errorf("stitched spans off: %+v (leased %d)", tr, leased)
	}
	if tr.Clamped {
		t.Error("exact stitch should not clamp")
	}
	if tr.OffsetNs != -skew {
		t.Errorf("offset %d, want %d", tr.OffsetNs, -skew)
	}
	if tr.Heartbeats != 1 {
		t.Errorf("heartbeats %d, want 1", tr.Heartbeats)
	}
	if tr.Outcome != OutcomeIngested {
		t.Errorf("outcome %q", tr.Outcome)
	}
}

func TestStitchingExactWithSlowWorkerClock(t *testing.T) {
	c, clk := newTestCollector(Config{})
	const skew = int64(-2 * time.Second) // worker clock 2s behind
	runUnit(c, clk, "r1-t0", 1, 0, "ping", "w1", 7, skew)
	tr := soleTrail(t, c)
	if tr.ExecEndNs-tr.ExecStartNs != int64(8*time.Millisecond) {
		t.Errorf("exec span %dns, want 8ms", tr.ExecEndNs-tr.ExecStartNs)
	}
	if tr.Clamped {
		t.Error("exact stitch should not clamp")
	}
	if tr.OffsetNs != -skew {
		t.Errorf("offset %d, want %d", tr.OffsetNs, -skew)
	}
}

// TestStitchingBackwardsWorkerClock feeds sub-spans whose worker timestamps
// run backwards (a clock step mid-batch). Stitching must clamp rather than
// emit a trail that reorders causal edges.
func TestStitchingBackwardsWorkerClock(t *testing.T) {
	c, clk := newTestCollector(Config{})
	c.UnitQueued("r1-t0", 1, 0, "ping")
	clk.advance(10 * time.Millisecond)
	c.UnitLeased("r1-t0", "w1", 1)
	leasedUnix := clk.ns
	clk.advance(2 * time.Millisecond)
	c.Heartbeat("w1", "r1-t0", clk.ns)
	spans := &WorkerSpans{
		LeaseRecvNs: leasedUnix + int64(time.Millisecond),
		ExecStartNs: leasedUnix - int64(5*time.Second),  // clock stepped back
		ExecEndNs:   leasedUnix - int64(10*time.Second), // and keeps regressing
		PostedNs:    leasedUnix - int64(20*time.Second),
	}
	clk.advance(10 * time.Millisecond)
	c.UnitResult("r1-t0", "w1", 1, true, "", spans)
	clk.advance(time.Millisecond)
	c.UnitIngested("r1-t0")

	tr := soleTrail(t, c)
	if !tr.Clamped {
		t.Error("backwards clock must clamp")
	}
	// Causal chain intact (Validate already checked); every stitched field
	// inside the [leased, result] window.
	for name, ns := range map[string]int64{
		"leaseRecv": tr.LeaseRecvNs, "execStart": tr.ExecStartNs,
		"execEnd": tr.ExecEndNs, "posted": tr.PostedNs,
	} {
		if ns < tr.LeasedNs || ns > tr.ResultNs {
			t.Errorf("%s=%d outside [%d, %d]", name, ns, tr.LeasedNs, tr.ResultNs)
		}
	}
}

// TestStitchingWithoutHeartbeats uses only the result POST's implicit bound.
func TestStitchingWithoutHeartbeats(t *testing.T) {
	c, clk := newTestCollector(Config{})
	c.UnitQueued("r2-t1", 2, 1, "pong")
	clk.advance(time.Millisecond)
	c.UnitLeased("r2-t1", "w9", 3)
	leasedUnix := clk.ns
	spans := &WorkerSpans{
		LeaseRecvNs: leasedUnix + int64(time.Millisecond),
		ExecStartNs: leasedUnix + int64(2*time.Millisecond),
		ExecEndNs:   leasedUnix + int64(3*time.Millisecond),
		PostedNs:    leasedUnix + int64(4*time.Millisecond),
	}
	clk.advance(5 * time.Millisecond)
	c.UnitResult("r2-t1", "w9", 3, true, "", spans)
	c.UnitIngested("r2-t1")
	tr := soleTrail(t, c)
	if !tr.Stitched() {
		t.Fatal("spans not stitched")
	}
	// With only the posted→recv bound, posted maps exactly onto result.
	if tr.PostedNs != tr.ResultNs {
		t.Errorf("posted %d, want result %d", tr.PostedNs, tr.ResultNs)
	}
}

func TestRequeueAndDropLifecycle(t *testing.T) {
	c, clk := newTestCollector(Config{})
	c.UnitQueued("r1-t0", 1, 0, "ping")
	clk.advance(time.Millisecond)
	c.UnitLeased("r1-t0", "w1", 1)
	clk.advance(20 * time.Millisecond)
	c.UnitRequeued("r1-t0") // w1 went silent; lease expired
	clk.advance(time.Millisecond)
	c.UnitLeased("r1-t0", "w2", 2)
	clk.advance(2 * time.Millisecond)
	// w1 comes back with the stale-epoch result: dropped.
	c.UnitResult("r1-t0", "w1", 1, false, "stale lease epoch", nil)
	clk.advance(3 * time.Millisecond)
	c.UnitResult("r1-t0", "w2", 2, true, "", nil)
	c.UnitIngested("r1-t0")

	trails := c.Trails()
	if len(trails) != 3 {
		t.Fatalf("got %d trails, want 3 (requeued, dropped, ingested): %+v", len(trails), trails)
	}
	for i := range trails {
		if err := trails[i].Validate(); err != nil {
			t.Errorf("trail %d invalid: %v", i, err)
		}
	}
	if trails[0].Outcome != OutcomeRequeued || trails[0].Attempt != 1 || trails[0].Worker != "w1" {
		t.Errorf("trail 0: %+v", trails[0])
	}
	byOutcome := map[string]UnitTrail{}
	for _, tr := range trails {
		byOutcome[tr.Outcome] = tr
	}
	if d := byOutcome[OutcomeDropped]; d.DropReason != "stale lease epoch" || d.Worker != "w1" {
		t.Errorf("dropped trail: %+v", d)
	}
	if g := byOutcome[OutcomeIngested]; g.Attempt != 2 || g.Worker != "w2" {
		t.Errorf("ingested trail: %+v", g)
	}
	// The requeued attempt's lease span is the time lost to the requeue.
	if lost := trails[0].EndNs - trails[0].LeasedNs; lost != int64(20*time.Millisecond) {
		t.Errorf("requeued lease span %v, want 20ms", time.Duration(lost))
	}
}

// TestNilCollectorIsSafe: every hook must be callable through a nil
// collector — the untraced fast path.
func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.UnitQueued("u", 1, 0, "t")
	c.UnitLeased("u", "w", 1)
	c.Heartbeat("w", "u", 123)
	c.UnitRequeued("u")
	c.UnitResult("u", "w", 1, true, "", &WorkerSpans{})
	c.UnitIngested("u")
	if c.Enabled() {
		t.Error("nil collector reports enabled")
	}
	if got := c.Trails(); got != nil {
		t.Errorf("nil collector trails: %v", got)
	}
}

func TestSpanIDDeterminism(t *testing.T) {
	build := func() []UnitTrail {
		c, clk := newTestCollector(Config{Token: "abc123"})
		runUnit(c, clk, "r1-t0", 1, 0, "ping", "w1", 1, 0)
		runUnit(c, clk, "r1-t1", 1, 1, "pong", "w2", 2, 0)
		return c.Trails()
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("trail counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].SpanID != b[i].SpanID {
			t.Errorf("span %d: %q vs %q", i, a[i].SpanID, b[i].SpanID)
		}
	}
	if a[0].SpanID != "abc123/r1/u0" || a[1].SpanID != "abc123/r1/u1" {
		t.Errorf("span IDs: %q, %q", a[0].SpanID, a[1].SpanID)
	}
}
