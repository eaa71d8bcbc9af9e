// Package atomizer infers atomicity-violation candidates from an execution
// trace — the analysis role that Atomizer and the atomic-set-serializability
// tools play in §1's generalization of active testing ("potential atomicity
// violations … could be provided by a static or dynamic analysis
// technique").
//
// The inference targets the lost-update pattern: a thread reads a location
// and later writes it with the same locks held (an intended-atomic
// read-modify-write block); any write to the same location by another
// thread under a disjoint lockset can interleave between the two halves.
// Each such (First, Second, Interferers) triple becomes a
// core.AtomicityTarget for phase 2 to confirm or refute.
package atomizer

import (
	"fmt"
	"sort"

	"racefuzzer/internal/event"
	"racefuzzer/internal/lockset"
)

// block is an observed read→write same-location block by one thread.
type block struct {
	first, second event.Stmt
	locks         lockset.Set
}

// writer is an observed write with its lockset.
type writer struct {
	stmt  event.Stmt
	locks lockset.Set
}

// Candidate is an inferred atomicity-violation target.
type Candidate struct {
	// Loc is the location the block reads and writes.
	Loc event.MemLoc
	// First and Second are the block's two accesses.
	First, Second event.Stmt
	// Interferers are other-thread write statements that can land between
	// them (disjoint locksets).
	Interferers []event.Stmt
}

func (c Candidate) String() string {
	return fmt.Sprintf("atomic block %s..%s on %s, interferers %v", c.First, c.Second, c.Loc, c.Interferers)
}

// Detector is a sched.Observer performing the inference.
type Detector struct {
	// lastRead[t][m] is thread t's most recent read of m (cleared by an
	// intervening write or unlock, which ends the candidate block).
	lastRead map[event.ThreadID]map[event.MemLoc]struct {
		stmt  event.Stmt
		locks lockset.Set
	}
	// blocks[m] collects read→write blocks per location, deduplicated.
	blocks map[event.MemLoc]map[[2]event.Stmt]block
	// writes[m] collects writer statements per location and thread.
	writes map[event.MemLoc]map[event.Stmt]writerInfo
}

type writerInfo struct {
	locks   lockset.Set
	threads map[event.ThreadID]bool
}

// New returns an empty detector.
func New() *Detector {
	return &Detector{
		lastRead: make(map[event.ThreadID]map[event.MemLoc]struct {
			stmt  event.Stmt
			locks lockset.Set
		}),
		blocks: make(map[event.MemLoc]map[[2]event.Stmt]block),
		writes: make(map[event.MemLoc]map[event.Stmt]writerInfo),
	}
}

// OnEvent implements sched.Observer.
func (d *Detector) OnEvent(e event.Event) {
	switch e.Kind {
	case event.KindMem:
		ls := lockset.FromMembers(e.Locks)
		tr := d.lastRead[e.Thread]
		if tr == nil {
			tr = make(map[event.MemLoc]struct {
				stmt  event.Stmt
				locks lockset.Set
			})
			d.lastRead[e.Thread] = tr
		}
		if e.Access == event.Read {
			tr[e.Loc] = struct {
				stmt  event.Stmt
				locks lockset.Set
			}{e.Stmt, ls}
			return
		}
		// A write: record it, and close any open read block on this location.
		wm := d.writes[e.Loc]
		if wm == nil {
			wm = make(map[event.Stmt]writerInfo)
			d.writes[e.Loc] = wm
		}
		wi, ok := wm[e.Stmt]
		if !ok {
			wi = writerInfo{locks: ls, threads: make(map[event.ThreadID]bool)}
		} else {
			wi.locks = wi.locks.Intersect(ls) // keep only locks held at every occurrence
		}
		wi.threads[e.Thread] = true
		wm[e.Stmt] = wi

		if r, ok := tr[e.Loc]; ok {
			// Read→write block with the locks common to both halves.
			common := r.locks.Intersect(ls)
			bm := d.blocks[e.Loc]
			if bm == nil {
				bm = make(map[[2]event.Stmt]block)
				d.blocks[e.Loc] = bm
			}
			k := [2]event.Stmt{r.stmt, e.Stmt}
			if prev, ok := bm[k]; ok {
				common = common.Intersect(prev.locks)
			}
			bm[k] = block{first: r.stmt, second: e.Stmt, locks: common}
			delete(tr, e.Loc)
		}

	case event.KindUnlock:
		// Releasing a lock ends open blocks whose protection depended on it —
		// conservatively, end every open read on this thread.
		delete(d.lastRead, e.Thread)
	}
}

// Candidates returns the inferred targets, deterministically ordered. A
// block is a candidate only if some other-thread writer statement has a
// lockset disjoint from the block's.
func (d *Detector) Candidates() []Candidate {
	var out []Candidate
	locs := make([]event.MemLoc, 0, len(d.blocks))
	for m := range d.blocks {
		locs = append(locs, m)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	for _, m := range locs {
		keys := make([][2]event.Stmt, 0, len(d.blocks[m]))
		for k := range d.blocks[m] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i][0] != keys[j][0] {
				return keys[i][0] < keys[j][0]
			}
			return keys[i][1] < keys[j][1]
		})
		for _, k := range keys {
			b := d.blocks[m][k]
			var inter []event.Stmt
			stmts := make([]event.Stmt, 0, len(d.writes[m]))
			for s := range d.writes[m] {
				stmts = append(stmts, s)
			}
			sort.Slice(stmts, func(i, j int) bool { return stmts[i] < stmts[j] })
			for _, s := range stmts {
				wi := d.writes[m][s]
				if s == b.second && len(wi.threads) < 2 {
					continue // the block's own write by the block's own thread
				}
				if wi.locks.Disjoint(b.locks) {
					inter = append(inter, s)
				}
			}
			if len(inter) > 0 {
				out = append(out, Candidate{Loc: m, First: b.first, Second: b.second, Interferers: inter})
			}
		}
	}
	return out
}
