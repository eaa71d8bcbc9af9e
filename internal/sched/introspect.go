package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"racefuzzer/internal/event"
)

// Live-state introspection: a read-only window into running executions for
// the observatory's /debug/sched endpoint.
//
// The scheduler's state (thread statuses, lock tables, the policy's
// postponed set) is touched only by the goroutine holding the step, with no
// lock a reader could take. Instead, introspection is request-driven: an
// Introspector slot carries one atomic "wanted" flag per live run, the
// scheduler checks it once per scheduling round (a single atomic load — and
// with no Introspector attached, a single nil check, the same no-op probe
// guarantee obs metrics give), and when set it builds an immutable
// RunSnapshot and publishes it through an atomic pointer. Readers never see
// partial state, the scheduler never blocks, and schedules are
// unperturbed: snapshot construction draws no randomness and happens at an
// already-deterministic point.

// PostponedReporter is implemented by policies that maintain a postponed
// set (the RaceFuzzer family); the introspector includes their view in
// snapshots. Called only on the goroutine holding the step.
type PostponedReporter interface {
	PostponedThreads() []event.ThreadID
}

// ThreadState is one model thread in a RunSnapshot.
type ThreadState struct {
	ID     event.ThreadID `json:"id"`
	Name   string         `json:"name"`
	Status string         `json:"status"` // running, parked, waiting, notified, dead
	// Pending is the rendered operation the thread will perform next
	// ("" once dead).
	Pending string `json:"pending,omitempty"`
	// Stmt is the statement of the pending operation (the location the
	// thread is parked at).
	Stmt      string `json:"stmt,omitempty"`
	Enabled   bool   `json:"enabled"`
	Postponed bool   `json:"postponed,omitempty"`
	// Held lists the monitor locks the thread currently holds, by name.
	Held []string `json:"held,omitempty"`
	// BlockedOn names the resource a disabled thread is blocked on: a lock,
	// a join target, or a monitor wait ("" when not blocked).
	BlockedOn string `json:"blockedOn,omitempty"`
}

// LockState is one monitor lock in a RunSnapshot.
type LockState struct {
	ID     event.LockID   `json:"id"`
	Name   string         `json:"name"`
	Holder event.ThreadID `json:"holder"` // event.NoThread when free
	Depth  int            `json:"depth"`
}

// WaitEdge is one edge of the wait-for graph: From is blocked until To acts
// (releases a lock or terminates).
type WaitEdge struct {
	From event.ThreadID `json:"from"`
	To   event.ThreadID `json:"to"`
	// Lock is the contended lock (event.NoLock for join edges).
	Lock     event.LockID `json:"lock"`
	LockName string       `json:"lockName,omitempty"`
}

// RunSnapshot is an immutable point-in-time view of one execution's
// scheduler state.
type RunSnapshot struct {
	// RunID is the introspector's handle for the execution (monotonic per
	// Introspector, not meaningful across processes).
	RunID  int64  `json:"runId"`
	Name   string `json:"name,omitempty"`
	Policy string `json:"policy"`
	Seed   int64  `json:"seed"`
	Step   int    `json:"step"`
	// Done marks the final snapshot published when the run ended.
	Done    bool          `json:"done,omitempty"`
	Threads []ThreadState `json:"threads"`
	Locks   []LockState   `json:"locks,omitempty"`
	// WaitFor is the current wait-for graph; a cycle here that also includes
	// every enabled thread is a deadlock, and a growing chain is one brewing.
	WaitFor []WaitEdge `json:"waitFor,omitempty"`
	// Cycles lists the thread cycles present in WaitFor (each in discovery
	// order) — non-empty means some threads can only be freed by a livelock
	// monitor or never.
	Cycles [][]event.ThreadID `json:"cycles,omitempty"`
}

// runSlot is the introspector's per-live-run mailbox.
type runSlot struct {
	id   int64
	want atomic.Bool
	snap atomic.Pointer[RunSnapshot]
}

// Introspector hands out read-only scheduler snapshots. One Introspector
// may be attached to any number of concurrent executions (a parallel
// campaign registers every in-flight run); Snapshot gathers all of them.
// All methods are safe for concurrent use and on a nil receiver.
type Introspector struct {
	mu     sync.Mutex
	nextID int64
	slots  map[int64]*runSlot
	last   *RunSnapshot // final snapshot of the most recently completed run
	served int64
}

// NewIntrospector returns an empty introspector.
func NewIntrospector() *Introspector {
	return &Introspector{slots: make(map[int64]*runSlot)}
}

// register adds a slot for a starting run (nil-safe; returns nil when off).
func (in *Introspector) register() *runSlot {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.nextID++
	s := &runSlot{id: in.nextID}
	in.slots[s.id] = s
	return s
}

// unregister retires a run's slot, retaining its final snapshot as the
// introspector's "last completed run" view. The final snapshot also lands
// in the slot (and the want flag clears) so a Snapshot call racing the
// run's end resolves immediately instead of timing out.
func (in *Introspector) unregister(s *runSlot, final *RunSnapshot) {
	if in == nil || s == nil {
		return
	}
	if final != nil {
		s.snap.Store(final)
	}
	s.want.Store(false)
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.slots, s.id)
	if final != nil {
		in.last = final
	}
}

// SchedSnapshot is the introspector's full answer: every live execution
// plus the most recently completed one.
type SchedSnapshot struct {
	// Active holds one snapshot per in-flight execution, ordered by RunID.
	// A snapshot may lag the live state by a round when its run was mid-grant
	// at request time.
	Active []RunSnapshot `json:"active"`
	// LastCompleted is the final snapshot of the most recently finished run
	// (useful between runs of a campaign, and after it).
	LastCompleted *RunSnapshot `json:"lastCompleted,omitempty"`
	// Requests counts Snapshot calls served by this introspector.
	Requests int64 `json:"requests"`
}

// Snapshot requests a fresh snapshot from every live run and collects the
// results, waiting up to timeout (default 100ms) for schedulers to publish.
// Runs that do not publish in time contribute their previous snapshot if
// one exists. Safe on a nil receiver (returns an empty snapshot).
func (in *Introspector) Snapshot(timeout time.Duration) SchedSnapshot {
	var out SchedSnapshot
	if in == nil {
		return out
	}
	if timeout <= 0 {
		timeout = 100 * time.Millisecond
	}
	in.mu.Lock()
	in.served++
	out.Requests = in.served
	slots := make([]*runSlot, 0, len(in.slots))
	for _, s := range in.slots {
		slots = append(slots, s)
	}
	if in.last != nil {
		last := *in.last
		out.LastCompleted = &last
	}
	in.mu.Unlock()

	for _, s := range slots {
		s.want.Store(true)
	}
	deadline := time.Now().Add(timeout)
	for {
		pending := false
		for _, s := range slots {
			if s.want.Load() {
				pending = true
			}
		}
		if !pending || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, s := range slots {
		if snap := s.snap.Load(); snap != nil {
			out.Active = append(out.Active, *snap)
		}
	}
	// slots came out of a map; present runs in start order.
	for i := 1; i < len(out.Active); i++ {
		for j := i; j > 0 && out.Active[j-1].RunID > out.Active[j].RunID; j-- {
			out.Active[j-1], out.Active[j] = out.Active[j], out.Active[j-1]
		}
	}
	return out
}

// pollIntrospect is the per-round probe: one nil check when
// introspection is off, one atomic load per round when on, a snapshot build
// only when a reader asked for one.
func (s *Scheduler) pollIntrospect() {
	if s.inspSlot == nil || !s.inspSlot.want.Load() {
		return
	}
	s.inspSlot.snap.Store(s.buildSnapshot(false))
	s.inspSlot.want.Store(false)
}

// finalizeIntrospect captures the run's final snapshot in finish, while
// the thread and lock tables still reflect the execution's end state —
// shutdown unwinds blocked threads, which would erase the wait-for graph a
// deadlock snapshot exists to show.
func (s *Scheduler) finalizeIntrospect() {
	if s.inspSlot == nil {
		return
	}
	s.finalSnap = s.buildSnapshot(true)
}

// buildSnapshot assembles an immutable view of the scheduler's state. Runs
// on the goroutine holding the step (or after Run's teardown).
func (s *Scheduler) buildSnapshot(done bool) *RunSnapshot {
	snap := &RunSnapshot{
		Name:   s.cfg.Name,
		Policy: s.policy.Name(),
		Seed:   s.cfg.Seed,
		Step:   s.steps,
		Done:   done,
	}
	if s.inspSlot != nil {
		snap.RunID = s.inspSlot.id
	}
	postponed := make(map[event.ThreadID]bool)
	if pr, ok := s.policy.(PostponedReporter); ok {
		for _, tid := range pr.PostponedThreads() {
			postponed[tid] = true
		}
	}
	for _, t := range s.threads {
		ts := ThreadState{
			ID:        t.id,
			Name:      t.name,
			Status:    t.status.String(),
			Enabled:   s.isEnabled(t.id),
			Postponed: postponed[t.id],
		}
		if t.status != tsDead {
			ts.Pending = t.pending.String()
			ts.Stmt = t.pending.Stmt.String()
			for _, l := range t.held.Slice() {
				ts.Held = append(ts.Held, s.locks[l].name)
			}
			if !ts.Enabled && t.status != tsRunning {
				switch {
				case t.status == tsWaiting:
					ts.BlockedOn = "wait " + s.locks[t.pending.Lock].name
				case t.pending.Kind == OpLock || t.pending.Kind == OpWaitResume:
					ts.BlockedOn = "lock " + s.locks[t.pending.Lock].name
				case t.pending.Kind == OpJoin:
					ts.BlockedOn = "join " + s.threads[t.pending.Target].name
				}
			}
		}
		snap.Threads = append(snap.Threads, ts)
	}
	for i, l := range s.locks {
		if l.holder == event.NoThread {
			continue
		}
		snap.Locks = append(snap.Locks, LockState{
			ID: event.LockID(i), Name: l.name, Holder: l.holder, Depth: l.depth,
		})
	}
	snap.WaitFor = s.waitForEdges()
	snap.Cycles = waitCycles(snap.WaitFor)
	return snap
}

// waitForEdges computes the current wait-for graph: parked-and-disabled
// threads edge to the thread that must act to free them.
func (s *Scheduler) waitForEdges() []WaitEdge {
	var edges []WaitEdge
	for _, t := range s.threads {
		if t.status == tsDead || t.status == tsRunning || s.isEnabled(t.id) {
			continue
		}
		switch t.pending.Kind {
		case OpLock, OpWaitResume:
			// tsWaiting threads are waiting for a notify, not a holder; only
			// notified (or plain lock-blocked) threads contend for the lock.
			if t.status == tsWaiting {
				continue
			}
			l := s.locks[t.pending.Lock]
			if l.holder != event.NoThread && l.holder != t.id {
				edges = append(edges, WaitEdge{
					From: t.id, To: l.holder, Lock: t.pending.Lock, LockName: l.name,
				})
			}
		case OpJoin:
			if s.threads[t.pending.Target].status != tsDead {
				edges = append(edges, WaitEdge{From: t.id, To: t.pending.Target, Lock: event.NoLock})
			}
		}
	}
	return edges
}

// waitCycles finds the cycles of a wait-for graph. Every thread has at most
// one outgoing edge (it blocks on one resource), so a simple pointer walk
// with visit coloring finds all cycles in linear time.
func waitCycles(edges []WaitEdge) [][]event.ThreadID {
	next := make(map[event.ThreadID]event.ThreadID, len(edges))
	for _, e := range edges {
		next[e.From] = e.To
	}
	const (
		unvisited = 0
		inProg    = 1
		doneV     = 2
	)
	color := make(map[event.ThreadID]int, len(next))
	var cycles [][]event.ThreadID
	for _, e := range edges {
		start := e.From
		if color[start] != unvisited {
			continue
		}
		// Walk the chain, marking the path; revisiting an in-progress node
		// closes a cycle.
		path := []event.ThreadID{}
		cur := start
		for {
			color[cur] = inProg
			path = append(path, cur)
			n, ok := next[cur]
			if !ok || color[n] == doneV {
				break
			}
			if color[n] == inProg {
				// Extract the cycle portion of the path.
				for i, tid := range path {
					if tid == n {
						cycles = append(cycles, append([]event.ThreadID(nil), path[i:]...))
						break
					}
				}
				break
			}
			cur = n
		}
		for _, tid := range path {
			color[tid] = doneV
		}
	}
	return cycles
}
