// Package deadlock implements phase 1 of the deadlock-directed instantiation
// of active testing (§1 of the paper: "we can bias the random scheduler by
// other potential concurrency problems such as … potential deadlocks. …
// Such sets of problematic statements could be provided by a static or
// dynamic analysis technique").
//
// The analysis is the classic lock-order graph (GoodLock-style): observing
// one execution, record an edge l1 → l2 whenever a thread acquires l2 while
// holding l1, annotated with the acquiring thread, the acquisition
// statement, and the gate set (all locks held at the acquisition). A pair of
// opposite edges l1 → l2 and l2 → l1 taken by different threads whose gate
// sets (minus the cycle's own locks) are disjoint is a *potential deadlock*
// — imprecise in exactly the way hybrid race detection is, and confirmed or
// refuted by core.DeadlockDirectedPolicy in phase 2.
package deadlock

import (
	"fmt"
	"sort"

	"racefuzzer/internal/event"
	"racefuzzer/internal/lockset"
)

// edgeKey identifies one lock-order edge.
type edgeKey struct {
	from, to event.LockID
}

// edgeInfo accumulates the contexts in which an edge was taken.
type edgeInfo struct {
	// byThread maps each acquiring thread to the gate sets seen. Gate sets
	// are deduplicated by signature.
	byThread map[event.ThreadID][]lockset.Set
	// stmts records acquisition statements (for reports).
	stmts map[event.Stmt]bool
}

// Cycle is a potential deadlock: two locks acquired in opposite orders by
// two different threads with disjoint gates.
type Cycle struct {
	Locks   [2]event.LockID
	Threads [2]event.ThreadID // example witnesses (first seen)
	Stmts   []event.Stmt      // acquisition statements involved
}

func (c Cycle) String() string {
	return fmt.Sprintf("potential deadlock: %v acquires %s then %s; %v acquires %s then %s",
		c.Threads[0], c.Locks[0], c.Locks[1], c.Threads[1], c.Locks[1], c.Locks[0])
}

// Detector is a sched.Observer building the lock-order graph.
type Detector struct {
	edges map[edgeKey]*edgeInfo
}

// New returns an empty detector.
func New() *Detector {
	return &Detector{edges: make(map[edgeKey]*edgeInfo)}
}

// OnEvent implements sched.Observer. Lock events carry the post-acquisition
// lockset snapshot, so no unlock bookkeeping is needed: the held-before set
// is the snapshot minus the acquired lock.
func (d *Detector) OnEvent(e event.Event) {
	if e.Kind != event.KindLock {
		return
	}
	heldAfter := lockset.FromMembers(e.Locks)
	heldBefore := heldAfter.Remove(e.Lock)
	if heldBefore.Len() == 0 {
		return
	}
	for _, from := range heldBefore.Slice() {
		k := edgeKey{from: from, to: e.Lock}
		info := d.edges[k]
		if info == nil {
			info = &edgeInfo{
				byThread: make(map[event.ThreadID][]lockset.Set),
				stmts:    make(map[event.Stmt]bool),
			}
			d.edges[k] = info
		}
		info.stmts[e.Stmt] = true
		gates := heldBefore.Remove(from) // gate set: everything else held
		dup := false
		for _, g := range info.byThread[e.Thread] {
			if g.Equal(gates) {
				dup = true
				break
			}
		}
		if !dup {
			info.byThread[e.Thread] = append(info.byThread[e.Thread], gates)
		}
	}
}

// Cycles returns the potential deadlocks, deterministically ordered.
func (d *Detector) Cycles() []Cycle {
	var out []Cycle
	seen := make(map[edgeKey]bool)
	keys := make([]edgeKey, 0, len(d.edges))
	for k := range d.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	for _, k := range keys {
		if k.from >= k.to {
			continue // handle each unordered lock pair once
		}
		rk := edgeKey{from: k.to, to: k.from}
		rev, ok := d.edges[rk]
		if !ok {
			continue
		}
		if seen[k] {
			continue
		}
		fwd := d.edges[k]
		// Two different threads with disjoint gate sets?
		cyc, found := d.findWitness(k, fwd, rev)
		if found {
			seen[k] = true
			out = append(out, cyc)
		}
	}
	return out
}

func (d *Detector) findWitness(k edgeKey, fwd, rev *edgeInfo) (Cycle, bool) {
	fwdThreads := sortedThreads(fwd.byThread)
	revThreads := sortedThreads(rev.byThread)
	for _, t1 := range fwdThreads {
		for _, t2 := range revThreads {
			if t1 == t2 {
				continue
			}
			for _, g1 := range fwd.byThread[t1] {
				for _, g2 := range rev.byThread[t2] {
					gates1 := g1.Remove(k.from).Remove(k.to)
					gates2 := g2.Remove(k.from).Remove(k.to)
					if gates1.Disjoint(gates2) {
						c := Cycle{
							Locks:   [2]event.LockID{k.from, k.to},
							Threads: [2]event.ThreadID{t1, t2},
						}
						for s := range fwd.stmts {
							c.Stmts = append(c.Stmts, s)
						}
						for s := range rev.stmts {
							c.Stmts = append(c.Stmts, s)
						}
						sort.Slice(c.Stmts, func(i, j int) bool { return c.Stmts[i] < c.Stmts[j] })
						return c, true
					}
				}
			}
		}
	}
	return Cycle{}, false
}

func sortedThreads(m map[event.ThreadID][]lockset.Set) []event.ThreadID {
	out := make([]event.ThreadID, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EdgeCount returns the number of distinct lock-order edges observed.
func (d *Detector) EdgeCount() int { return len(d.edges) }
