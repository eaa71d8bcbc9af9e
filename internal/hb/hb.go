// Package hb implements a precise happens-before race detector — the
// classical technique (Schonberg; FastTrack-style vector clocks) the paper
// contrasts with in §1 and §6. Unlike the hybrid detector, its
// happens-before relation includes lock release→acquire edges, so it only
// reports races that actually manifest (two accesses causally unordered in
// the observed execution) and never false alarms — but it misses races that
// a different schedule would expose, which is exactly the weakness Example 2
// (§3.2) illustrates and RaceFuzzer repairs.
package hb

import (
	"racefuzzer/internal/event"
	"racefuzzer/internal/vclock"
)

// access is one remembered MEM event for a location. Its epoch — the
// accessing thread's own clock component at the access — is all the
// ordering test reads, so no clock snapshot is kept.
type access struct {
	thread event.ThreadID
	stmt   event.Stmt
	write  bool
	epoch  int32
}

// Detector is a sched.Observer implementing precise happens-before race
// detection with fork/join/notify and lock release→acquire edges.
type Detector struct {
	vcs   map[event.ThreadID]*vclock.VC
	msgs  map[event.MsgID]*vclock.VC
	locks map[event.LockID]*vclock.VC
	hist  map[event.MemLoc][]access
	races map[event.StmtPair]int
}

// New returns an empty detector.
func New() *Detector {
	return &Detector{
		vcs:   make(map[event.ThreadID]*vclock.VC),
		msgs:  make(map[event.MsgID]*vclock.VC),
		locks: make(map[event.LockID]*vclock.VC),
		hist:  make(map[event.MemLoc][]access),
		races: make(map[event.StmtPair]int),
	}
}

func (d *Detector) clock(t event.ThreadID) *vclock.VC {
	vc, ok := d.vcs[t]
	if !ok {
		vc = vclock.New()
		vc.Tick(t)
		d.vcs[t] = vc
	}
	return vc
}

// OnEvent implements sched.Observer.
func (d *Detector) OnEvent(e event.Event) {
	switch e.Kind {
	case event.KindSnd:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		d.msgs[e.Msg] = vc.Copy()

	case event.KindRcv:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		if mc, ok := d.msgs[e.Msg]; ok {
			vc.Join(mc)
		}

	case event.KindLock:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		if lc, ok := d.locks[e.Lock]; ok {
			vc.Join(lc) // release → acquire edge
		}

	case event.KindUnlock:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		d.locks[e.Lock] = vc.Copy()

	case event.KindMem:
		vc := d.clock(e.Thread)
		epoch := vc.Tick(e.Thread)
		h := d.hist[e.Loc]
		for i := range h {
			p := &h[i]
			if p.thread == e.Thread {
				continue
			}
			if !p.write && e.Access != event.Write {
				continue
			}
			if p.epoch <= vc.Get(p.thread) {
				continue // ordered: p happens-before e
			}
			d.races[event.MakeStmtPair(p.stmt, e.Stmt)]++
		}
		d.hist[e.Loc] = append(h, access{
			thread: e.Thread, stmt: e.Stmt, write: e.Access == event.Write, epoch: epoch,
		})
	}
}

// Pairs returns the racing statement pairs actually observed, in
// deterministic order.
func (d *Detector) Pairs() []event.StmtPair {
	out := make([]event.StmtPair, 0, len(d.races))
	for p := range d.races {
		out = append(out, p)
	}
	event.SortStmtPairs(out)
	return out
}

// Count returns the number of witnessing event pairs for p.
func (d *Detector) Count(p event.StmtPair) int { return d.races[p] }
