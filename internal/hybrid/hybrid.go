// Package hybrid implements phase 1 of the paper: hybrid dynamic race
// detection (O'Callahan–Choi, summarized in §2.2). Observing one concurrent
// execution, it reports every pair of statements (s_i, s_j) for which some
// events e_i = MEM(s_i, m, a_i, t_i, L_i) and e_j = MEM(s_j, m, a_j, t_j, L_j)
// satisfy
//
//	t_i ≠ t_j ∧ (a_i = WRITE ∨ a_j = WRITE) ∧ L_i ∩ L_j = ∅
//	          ∧ ¬(e_i ≼ e_j) ∧ ¬(e_j ≼ e_i)
//
// where ≼ is the happens-before relation generated by program order and the
// SND/RCV messages of fork, join and delivered notify. Lock acquire/release
// deliberately contributes nothing to ≼ — the lockset conjunct handles
// locking — which is what makes the technique predictive (it flags races
// that did not literally occur in the observed schedule) and imprecise (it
// reports false positives such as the x accesses of the paper's Figure 1).
package hybrid

import (
	"fmt"
	"sort"
	"sync"

	"racefuzzer/internal/event"
	"racefuzzer/internal/lockset"
	"racefuzzer/internal/vclock"
)

// access is one history entry of a location: the latest MEM event of one
// (thread, stmt, access kind, lockset) key. Only the accessing thread's own
// clock component at the access (its epoch) is kept, because that is all
// the concurrency test ever reads from an earlier access's clock. Fields
// are ordered to pack an entry into 48 bytes.
type access struct {
	locks  lockset.Set
	thread event.ThreadID
	stmt   event.Stmt
	epoch  int32
	write  bool
}

// RaceInfo accumulates evidence for one potentially racing statement pair.
type RaceInfo struct {
	Pair event.StmtPair
	// Count is the number of matches against the deduplicated history: each
	// MEM event adds one per remembered (thread, stmt, access kind, lockset)
	// entry it races with, not one per earlier racing event.
	Count int
	Loc   event.MemLoc // example location
	First int          // step of the first witnessing event pair
}

func (r RaceInfo) String() string {
	return fmt.Sprintf("%s on %s (%d witnesses, first at step %d)", r.Pair, r.Loc, r.Count, r.First)
}

// Detector is a sched.Observer implementing hybrid race detection.
// Create with New; feed it one execution; read Pairs/Races afterwards;
// hand it back with Release. The standard pipeline
// (core.DetectPotentialRaces) uses one Detector per run and unions the
// reported pairs.
//
// Each location's history keeps one entry per (thread, stmt, access kind,
// lockset), updated to the key's newest epoch, so a repeated access
// allocates nothing. This loses no pair: a thread's epochs only grow, so
// the newest one is concurrent with every later access an older one is
// (DESIGN.md, "Phase-1 detector cost"). OnEvent retains e.Locks when it is
// strictly ascending, so callers must not mutate it afterwards.
//
// Message clocks, location histories and race records live in arenas,
// indexed through maps keyed by the events' IDs: the IDs of a replayed or
// hand-built stream are arbitrary, so no table is sized by an ID's value.
// Release keeps the arenas' storage, so a recycled Detector that sees a run
// again allocates nothing.
type Detector struct {
	vcs     []vclock.VC // by ThreadID; own component 0 = thread not seen yet
	msgIdx  map[event.MsgID]int32
	msgs    []vclock.VC // the sender's clock at each SND
	locIdx  map[event.MemLoc]int32
	hists   [][]access // each location's history
	races   map[event.StmtPair]int32
	infos   []RaceInfo // by races index, in discovery order
	memSeen int
}

var pool = sync.Pool{
	New: func() any {
		return &Detector{
			msgIdx: make(map[event.MsgID]int32),
			locIdx: make(map[event.MemLoc]int32),
			races:  make(map[event.StmtPair]int32),
		}
	},
}

// New returns an empty detector, recycled from an earlier Release when one
// is available.
func New() *Detector { return pool.Get().(*Detector) }

// Release empties d and returns it to New's pool, keeping its storage. The
// caller must not use d afterwards; what Pairs and Races returned stays
// valid. A Detector that is never released is simply collected.
func (d *Detector) Release() {
	d.reset()
	pool.Put(d)
}

// reset empties d, keeping its storage. History storage is kept only for
// as many locations as the run touched, so a detector that last saw a small
// program stays small.
func (d *Detector) reset() {
	// Only the live prefixes need emptying: clocks past them were reset
	// when an earlier reset truncated them, histories past them are dropped
	// here, and a reused message clock or race record is overwritten whole.
	for i := range d.vcs {
		d.vcs[i].Reset()
	}
	d.vcs = d.vcs[:0]
	clear(d.msgIdx)
	d.msgs = d.msgs[:0]
	clear(d.locIdx)
	clear(d.hists[len(d.hists):cap(d.hists)])
	for i, h := range d.hists {
		clear(h) // drops the lockset slices the entries share
		d.hists[i] = h[:0]
	}
	d.hists = d.hists[:0]
	clear(d.races)
	d.infos = d.infos[:0]
	d.memSeen = 0
}

// slot returns key's index into arena, adding an element for a key not seen
// before. The element reuses storage an earlier reset left past the
// arena's length.
func slot[K comparable, T any](idx map[K]int32, arena *[]T, key K) int32 {
	if i, ok := idx[key]; ok {
		return i
	}
	i := len(*arena)
	if i < cap(*arena) {
		*arena = (*arena)[:i+1]
	} else {
		var zero T
		*arena = append(*arena, zero)
	}
	idx[key] = int32(i)
	return int32(i)
}

func (d *Detector) clock(t event.ThreadID) *vclock.VC {
	if n := int(t) + 1; n > len(d.vcs) {
		if n > cap(d.vcs) {
			d.vcs = append(d.vcs[:cap(d.vcs)], make([]vclock.VC, n-cap(d.vcs))...)
		}
		d.vcs = d.vcs[:n]
	}
	vc := &d.vcs[t]
	if vc.Get(t) == 0 {
		vc.Tick(t) // birth tick: distinguishes the thread's empty clock
	}
	return vc
}

// OnEvent implements sched.Observer.
func (d *Detector) OnEvent(e event.Event) {
	switch e.Kind {
	case event.KindSnd:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		d.msgs[slot(d.msgIdx, &d.msgs, e.Msg)].Assign(vc)

	case event.KindRcv:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		if i, ok := d.msgIdx[e.Msg]; ok {
			vc.Join(&d.msgs[i])
		}

	case event.KindMem:
		d.memSeen++
		vc := d.clock(e.Thread)
		epoch := vc.Tick(e.Thread)
		ls := lockset.FromMembers(e.Locks)
		write := e.Access == event.Write
		hi := slot(d.locIdx, &d.hists, e.Loc)
		h := d.hists[hi]
		same := -1
		for i := range h {
			p := &h[i]
			if p.thread == e.Thread {
				if p.stmt == e.Stmt && p.write == write && p.locks.Equal(ls) {
					same = i
				}
				continue
			}
			if !p.write && !write {
				continue
			}
			if !p.locks.Disjoint(ls) {
				continue
			}
			// p is earlier in the trace, so only p ≼ e is possible; they are
			// concurrent iff e has not seen p's tick.
			if p.epoch <= vc.Get(p.thread) {
				continue
			}
			pair := event.MakeStmtPair(p.stmt, e.Stmt)
			ri, ok := d.races[pair]
			if !ok {
				ri = int32(len(d.infos))
				d.infos = append(d.infos, RaceInfo{Pair: pair, Loc: e.Loc, First: e.Step})
				d.races[pair] = ri
			}
			d.infos[ri].Count++
		}
		if same >= 0 {
			h[same].epoch = epoch
		} else {
			d.hists[hi] = append(h, access{
				thread: e.Thread, stmt: e.Stmt, write: write, locks: ls, epoch: epoch,
			})
		}

	case event.KindLock, event.KindUnlock:
		// Locks are covered by the lockset conjunct; no ≼ contribution.
	}
}

// Pairs returns the potentially racing statement pairs, deterministically
// ordered. This is the RaceSet feed for phase 2.
func (d *Detector) Pairs() []event.StmtPair {
	out := make([]event.StmtPair, len(d.infos))
	for i, info := range d.infos {
		out[i] = info.Pair
	}
	event.SortStmtPairs(out)
	return out
}

// Races returns detailed per-pair evidence in the same order as Pairs.
func (d *Detector) Races() []RaceInfo {
	out := make([]RaceInfo, len(d.infos))
	copy(out, d.infos)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pair, out[j].Pair
		an, bn := a.A.Name(), b.A.Name()
		if an != bn {
			return an < bn
		}
		return a.B.Name() < b.B.Name()
	})
	return out
}

// MemEvents returns the number of MEM events processed (overhead metric:
// hybrid tracks every shared access, unlike RaceFuzzer).
func (d *Detector) MemEvents() int { return d.memSeen }
