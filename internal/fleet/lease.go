package fleet

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for the lease table so expiry semantics are testable
// with a fake clock and no sleeps.
type Clock interface {
	Now() time.Time
}

// systemClock is the real clock.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// unitPhase is a unit's position in the lease state machine:
//
//	pending --lease--> leased --result(epoch match)--> done --fold--> (removed)
//	   ^                  |
//	   +---expiry/requeue-+
//
// Every grant increments the table-wide monotonic epoch, so a result or
// heartbeat from a pre-requeue holder is recognizably stale and dropped —
// the idempotence rule that stops a retried batch double-counting.
type unitPhase int

const (
	unitPending unitPhase = iota
	unitLeased
	unitDone
)

// unitState is one unit's lease-table entry.
type unitState struct {
	unit     WorkUnit
	phase    unitPhase
	worker   string
	epoch    int64
	deadline time.Time
	result   *UnitResult
}

// leaseTable is the coordinator's work queue: pending units are granted
// FIFO, leased units expire back to pending when their holder stops
// heartbeating, done units hold their accepted result until the round
// driver takes it to fold, which removes them. All methods are safe for
// concurrent use; completion is broadcast so the driver waits for each unit
// in turn without polling, and new pending units close the wake channel so
// held lease requests need not poll either.
type leaseTable struct {
	mu    sync.Mutex
	cond  *sync.Cond
	wake  chan struct{} // closed and replaced whenever units become pending
	clock Clock
	ttl   time.Duration

	epoch   int64
	units   map[string]*unitState
	queue   []string // pending unit IDs, FIFO
	doneN   int
	leasedN int

	requeues int64
	dropped  int64
}

func newLeaseTable(clock Clock, ttl time.Duration) *leaseTable {
	t := &leaseTable{clock: clock, ttl: ttl, units: make(map[string]*unitState), wake: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// wakeup returns the channel the next pending unit closes. A caller takes
// it before trying lease, so a unit added after a failed attempt is never
// missed.
func (t *leaseTable) wakeup() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wake
}

// wakeLocked releases every held lease request: units just became pending.
func (t *leaseTable) wakeLocked() {
	close(t.wake)
	t.wake = make(chan struct{})
}

// add enqueues a round's units.
func (t *leaseTable) add(units []WorkUnit) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, u := range units {
		if _, ok := t.units[u.ID]; ok {
			continue // a unit ID in the table is enqueued once
		}
		t.units[u.ID] = &unitState{unit: u, phase: unitPending}
		t.queue = append(t.queue, u.ID)
	}
	t.cond.Broadcast()
	t.wakeLocked()
}

// lease grants the next pending unit to worker, under a fresh epoch and a
// TTL deadline. ok is false when nothing is pending (expired leases are
// requeued first, so a lost worker's unit is re-grantable here).
func (t *leaseTable) lease(worker string) (WorkUnit, int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.clock.Now())
	if len(t.queue) == 0 {
		return WorkUnit{}, 0, false
	}
	id := t.queue[0]
	t.queue = t.queue[1:]
	st := t.units[id]
	t.epoch++
	st.phase = unitLeased
	st.worker = worker
	st.epoch = t.epoch
	st.deadline = t.clock.Now().Add(t.ttl)
	t.leasedN++
	return st.unit, st.epoch, true
}

// heartbeat extends a held lease; false means the lease is no longer held
// (expired and requeued, re-granted under a newer epoch, or completed).
func (t *leaseTable) heartbeat(worker, unitID string, epoch int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.clock.Now())
	st, ok := t.units[unitID]
	if !ok || st.phase != unitLeased || st.worker != worker || st.epoch != epoch {
		return false
	}
	st.deadline = t.clock.Now().Add(t.ttl)
	return true
}

// complete submits a result. It is accepted only when the unit is still
// leased under exactly this epoch; a duplicate (unit already done, or
// already folded and so unknown) or a stale epoch (lease expired, possibly
// re-granted) is dropped, so a retried batch can never double-count. Acceptance is broadcast to the round driver.
func (t *leaseTable) complete(worker, unitID string, epoch int64, res *UnitResult) (accepted bool, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.clock.Now())
	st, ok := t.units[unitID]
	switch {
	case !ok:
		reason = "unknown unit"
	case st.phase == unitDone:
		reason = "duplicate result: unit already complete"
	case st.phase != unitLeased || st.epoch != epoch:
		reason = "stale lease epoch: lease expired and unit was requeued"
	default:
		st.phase = unitDone
		st.result = res
		t.leasedN--
		t.doneN++
		t.cond.Broadcast()
		return true, ""
	}
	t.dropped++
	return false, reason
}

// expireLocked moves overdue leases back to the pending queue. Called under
// t.mu from every entry point, so expiry needs no background timer of its
// own (the coordinator still runs a coarse sweeper so a round waiting on a
// unit and held lease requests notice a silent fleet).
func (t *leaseTable) expireLocked(now time.Time) {
	requeued := false
	for _, id := range t.sortedLeasedLocked() {
		st := t.units[id]
		if now.Before(st.deadline) {
			continue
		}
		st.phase = unitPending
		st.worker = ""
		t.queue = append(t.queue, id)
		t.leasedN--
		t.requeues++
		requeued = true
	}
	if requeued {
		t.cond.Broadcast()
		t.wakeLocked()
	}
}

// sortedLeasedLocked snapshots leased unit IDs in deterministic (queue
// insertion can't be recovered, so lexical) order, for stable requeueing.
func (t *leaseTable) sortedLeasedLocked() []string {
	var ids []string
	for id, st := range t.units {
		if st.phase == unitLeased {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// sweep runs expiry outside any request, waking the round driver and held
// lease requests that would otherwise block on a fleet that silently died.
func (t *leaseTable) sweep() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.clock.Now())
}

// awaitResult blocks until unit id is done, then hands over its accepted
// result and drops the unit from the table, so the result is handed over
// exactly once and a later submission for the unit is dropped as unknown.
// A done unit is handed over even after ctx is cancelled, so a cancelled
// round still folds every unit that was already done; a unit not yet done
// returns ctx's error.
func (t *leaseTable) awaitResult(ctx context.Context, id string) (*UnitResult, error) {
	stop := context.AfterFunc(ctx, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if st, ok := t.units[id]; ok && st.phase == unitDone {
			delete(t.units, id)
			return st.result, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.cond.Wait()
	}
}

// counts snapshots the table's phase tallies.
func (t *leaseTable) counts() (pending, leased, done int, requeues, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.clock.Now())
	return len(t.queue), t.leasedN, t.doneN, t.requeues, t.dropped
}
