package fleet

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced Clock so lease expiry is tested without
// sleeps.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mkUnits(ids ...string) []WorkUnit {
	units := make([]WorkUnit, len(ids))
	for i, id := range ids {
		units[i] = WorkUnit{ID: id, Target: "figure1", Trials: 1, Seed: 7}
	}
	return units
}

// TestLeaseHeartbeatAndTimeout: a heartbeating worker keeps its lease
// arbitrarily long; a silent worker loses it one TTL after the last
// heartbeat and the unit requeues for the next caller.
func TestLeaseHeartbeatAndTimeout(t *testing.T) {
	clock := newFakeClock()
	const ttl = 10 * time.Second
	tbl := newLeaseTable(clock, ttl)
	tbl.add(mkUnits("r1-t0"))

	u, epoch, ok := tbl.lease("w1")
	if !ok || u.ID != "r1-t0" {
		t.Fatalf("lease: got (%v,%d,%v)", u, epoch, ok)
	}
	// Heartbeats just before each deadline keep the lease alive across many
	// TTLs.
	for i := 0; i < 5; i++ {
		clock.Advance(ttl - time.Second)
		if !tbl.heartbeat("w1", "r1-t0", epoch) {
			t.Fatalf("heartbeat %d rejected while lease held", i)
		}
	}
	if _, _, ok := tbl.lease("w2"); ok {
		t.Fatal("unit leased twice while held")
	}

	// Silence: one TTL later the lease expires and the unit requeues.
	clock.Advance(ttl)
	u2, epoch2, ok := tbl.lease("w2")
	if !ok || u2.ID != "r1-t0" {
		t.Fatalf("requeued unit not re-granted: (%v,%v)", u2, ok)
	}
	if epoch2 <= epoch {
		t.Fatalf("re-grant epoch %d not newer than %d", epoch2, epoch)
	}
	if tbl.heartbeat("w1", "r1-t0", epoch) {
		t.Fatal("original holder's heartbeat accepted after requeue")
	}
	_, _, _, requeues, _ := tbl.counts()
	if requeues != 1 {
		t.Fatalf("requeues = %d, want 1", requeues)
	}
}

// TestResultAcceptance is the idempotence matrix: exactly one submission per
// unit is merged, everything else is dropped with a reason.
func TestResultAcceptance(t *testing.T) {
	const ttl = 10 * time.Second
	cases := []struct {
		name       string
		setup      func(t *testing.T, tbl *leaseTable, clock *fakeClock) (unitID string, epoch int64)
		accept     bool
		wantReason string
	}{
		{
			name: "held lease accepted",
			setup: func(t *testing.T, tbl *leaseTable, clock *fakeClock) (string, int64) {
				u, e, _ := tbl.lease("w1")
				return u.ID, e
			},
			accept: true,
		},
		{
			name: "duplicate of a completed unit dropped",
			setup: func(t *testing.T, tbl *leaseTable, clock *fakeClock) (string, int64) {
				u, e, _ := tbl.lease("w1")
				if ok, _ := tbl.complete("w1", u.ID, e, &UnitResult{}); !ok {
					t.Fatal("first completion rejected")
				}
				return u.ID, e
			},
			wantReason: "duplicate result: unit already complete",
		},
		{
			name: "expired lease's late result dropped",
			setup: func(t *testing.T, tbl *leaseTable, clock *fakeClock) (string, int64) {
				u, e, _ := tbl.lease("w1")
				clock.Advance(ttl + time.Second) // w1 dies; lease expires
				return u.ID, e
			},
			wantReason: "stale lease epoch: lease expired and unit was requeued",
		},
		{
			name: "pre-requeue epoch dropped after re-grant",
			setup: func(t *testing.T, tbl *leaseTable, clock *fakeClock) (string, int64) {
				u, e1, _ := tbl.lease("w1")
				clock.Advance(ttl + time.Second)
				if _, e2, ok := tbl.lease("w2"); !ok || e2 == e1 {
					t.Fatal("expired unit not re-granted under a fresh epoch")
				}
				return u.ID, e1
			},
			wantReason: "stale lease epoch: lease expired and unit was requeued",
		},
		{
			name: "unknown unit dropped",
			setup: func(t *testing.T, tbl *leaseTable, clock *fakeClock) (string, int64) {
				return "r9-t9", 1
			},
			wantReason: "unknown unit",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			tbl := newLeaseTable(clock, ttl)
			tbl.add(mkUnits("r1-t0"))
			unitID, epoch := tc.setup(t, tbl, clock)
			accepted, reason := tbl.complete("w1", unitID, epoch, &UnitResult{Trials: 1})
			if accepted != tc.accept {
				t.Fatalf("accepted = %v (%s), want %v", accepted, reason, tc.accept)
			}
			if reason != tc.wantReason {
				t.Fatalf("reason = %q, want %q", reason, tc.wantReason)
			}
			if !tc.accept {
				if _, _, _, _, dropped := tbl.counts(); dropped == 0 {
					t.Fatal("dropped counter not incremented")
				}
			}
		})
	}
}

// TestExpiredThenReexecutedUnitCountsOnce: the full lost-worker story at the
// table level — the requeued unit completes exactly once even though two
// workers executed it, so a retried batch can never double-merge.
func TestExpiredThenReexecutedUnitCountsOnce(t *testing.T) {
	clock := newFakeClock()
	const ttl = 10 * time.Second
	tbl := newLeaseTable(clock, ttl)
	tbl.add(mkUnits("r1-t0", "r1-t1"))

	u1, e1, _ := tbl.lease("w1") // w1 takes r1-t0 and dies
	clock.Advance(ttl + time.Second)

	// w2 drains the still-pending unit first (requeues go to the queue
	// tail), then inherits r1-t0.
	ub, eb, _ := tbl.lease("w2")
	tbl.complete("w2", ub.ID, eb, &UnitResult{})
	u2, e2, _ := tbl.lease("w2")
	if u2.ID != u1.ID {
		t.Fatalf("w2 leased %s, want requeued %s", u2.ID, u1.ID)
	}
	if ok, _ := tbl.complete("w2", u2.ID, e2, &UnitResult{Trials: 5}); !ok {
		t.Fatal("w2's result rejected")
	}
	// w1 comes back from the dead with the same (deterministic) batch.
	if ok, reason := tbl.complete("w1", u1.ID, e1, &UnitResult{Trials: 5}); ok {
		t.Fatal("zombie worker's duplicate result accepted")
	} else if reason == "" {
		t.Fatal("drop must carry a reason")
	}

	_, _, done, requeues, dropped := tbl.counts()
	if done != 2 || requeues != 1 || dropped != 1 {
		t.Fatalf("done/requeues/dropped = %d/%d/%d, want 2/1/1", done, requeues, dropped)
	}
	if res, err := tbl.awaitResult(context.Background(), u1.ID); err != nil || res.Trials != 5 {
		t.Fatalf("awaitResult = %+v, %v, want the single accepted batch", res, err)
	}
}

// TestAwaitResult: waiting on a unit wakes on its completion, not on
// another unit's, hands its result over exactly once, and honors
// cancellation.
func TestAwaitResult(t *testing.T) {
	clock := newFakeClock()
	tbl := newLeaseTable(clock, time.Minute)
	tbl.add(mkUnits("a", "b"))

	type answer struct {
		res *UnitResult
		err error
	}
	answers := make(chan answer, 1)
	await := func(ctx context.Context, id string) {
		res, err := tbl.awaitResult(ctx, id)
		answers <- answer{res, err}
	}
	go await(context.Background(), "b")
	ua, ea, _ := tbl.lease("w1")
	ub, eb, _ := tbl.lease("w1")
	tbl.complete("w1", ua.ID, ea, &UnitResult{Trials: 1})
	select {
	case got := <-answers:
		t.Fatalf("released while its unit is outstanding: %+v", got)
	default:
	}
	tbl.complete("w1", ub.ID, eb, &UnitResult{Trials: 2})
	if got := <-answers; got.err != nil || got.res == nil || got.res.Trials != 2 {
		t.Fatalf("awaitResult(b) = %+v, want b's result", got)
	}
	if res, err := tbl.awaitResult(context.Background(), "a"); err != nil || res == nil || res.Trials != 1 {
		t.Fatalf("awaitResult(a) = %+v, %v, want a's result", res, err)
	}
	// Handed over once: the units are gone, so waiting on them again only
	// ends with its context, and a late result for one is unknown.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"a", "b"} {
		if res, err := tbl.awaitResult(cancelled, id); err == nil || res != nil {
			t.Fatalf("second awaitResult(%s) = %+v, %v, want no result", id, res, err)
		}
	}
	if ok, reason := tbl.complete("w1", ub.ID, eb, &UnitResult{}); ok || reason != "unknown unit" {
		t.Fatalf("result after hand-over: accepted %v (%q), want dropped as unknown", ok, reason)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go await(ctx, "never-added")
	cancel()
	if got := <-answers; got.err == nil || got.res != nil {
		t.Fatalf("cancelled wait = %+v, want an error", got)
	}
}

// TestWakeupOnAddAndRequeue: the wake channel taken before a failed lease
// closes when units are added and when expiry requeues a unit, and not
// before.
func TestWakeupOnAddAndRequeue(t *testing.T) {
	clock := newFakeClock()
	const ttl = 10 * time.Second
	tbl := newLeaseTable(clock, ttl)
	closed := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return true
		default:
			return false
		}
	}

	wake := tbl.wakeup()
	if _, _, ok := tbl.lease("w1"); ok {
		t.Fatal("empty table granted a unit")
	}
	if closed(wake) {
		t.Fatal("wake closed with nothing pending")
	}
	tbl.add(mkUnits("r1-t0"))
	if !closed(wake) {
		t.Fatal("add did not close the wake channel")
	}

	wake = tbl.wakeup()
	if _, _, ok := tbl.lease("w1"); !ok {
		t.Fatal("added unit not granted")
	}
	tbl.sweep()
	if closed(wake) {
		t.Fatal("wake closed while the only unit is held")
	}
	clock.Advance(ttl)
	tbl.sweep()
	if !closed(wake) {
		t.Fatal("requeue did not close the wake channel")
	}
	if u, _, ok := tbl.lease("w2"); !ok || u.ID != "r1-t0" {
		t.Fatalf("requeued unit not granted: (%v,%v)", u, ok)
	}
}
