package sched

import (
	"fmt"
	"sort"
	"strconv"

	"racefuzzer/internal/event"
)

// NewLoc allocates a fresh shared-memory location. Called by the conc
// package from model-thread context; execution is serialized, so a plain
// counter is deterministic.
func (s *Scheduler) NewLoc(name string) event.MemLoc {
	return s.addLocs(locEntry{kind: locPlain, base: name}, 1)
}

// NewLocRange reserves n consecutive locations named name[0] … name[n-1]
// and returns the first. The element names are rendered by LocName when
// read, so the cost does not grow with n.
func (s *Scheduler) NewLocRange(name string, n int) event.MemLoc {
	if n < 0 {
		panic("sched: NewLocRange with negative length")
	}
	return s.addLocs(locEntry{kind: locElem, base: name}, n)
}

// NewLocIndexed allocates one location named base, then i in decimal, then
// suffix (for example "list.node" 3 ".next" is "list.node3.next"), without
// building the string: LocName renders it when read.
func (s *Scheduler) NewLocIndexed(base string, i int, suffix string) event.MemLoc {
	return s.addLocs(locEntry{kind: locIndexed, base: base, idx: i, suffix: suffix}, 1)
}

// newIntrLoc reserves thread tidx's interrupt-status location.
func (s *Scheduler) newIntrLoc(tidx int) event.MemLoc {
	return s.addLocs(locEntry{kind: locIntr, idx: tidx}, 1)
}

func (s *Scheduler) addLocs(e locEntry, n int) event.MemLoc {
	e.first = s.nextLoc
	s.locs = append(s.locs, e)
	s.nextLoc += event.MemLoc(n)
	return e.first
}

// LocName returns the debug name of loc.
func (s *Scheduler) LocName(loc event.MemLoc) string {
	if loc < 0 || loc >= s.nextLoc {
		return loc.String()
	}
	// The owning entry is the last one starting at or before loc; an empty
	// range shares its first location with the entry after it.
	i := sort.Search(len(s.locs), func(i int) bool { return s.locs[i].first > loc }) - 1
	return s.locs[i].name(s, loc)
}

// locKind says how a locEntry's name is rendered.
type locKind uint8

const (
	locPlain   locKind = iota // base
	locElem                   // base[i], i = loc - first
	locIndexed                // base, idx in decimal, suffix
	locIntr                   // "<thread name>(T<idx>).interrupt"
)

// locEntry names the locations from first up to the next entry's first.
// The name is kept in pieces and joined only when LocName reads it, so
// allocating locations builds no strings — the analogue of the paper's
// static field and array-slot identities.
type locEntry struct {
	first  event.MemLoc
	kind   locKind
	idx    int
	base   string
	suffix string
}

func (e *locEntry) name(s *Scheduler, loc event.MemLoc) string {
	switch e.kind {
	case locElem:
		return e.base + "[" + strconv.Itoa(int(loc-e.first)) + "]"
	case locIndexed:
		return e.base + strconv.Itoa(e.idx) + e.suffix
	case locIntr:
		return fmt.Sprintf("%s(T%d).interrupt", s.threads[e.idx].name, e.idx)
	}
	return e.base
}
