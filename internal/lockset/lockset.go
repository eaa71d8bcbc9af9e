// Package lockset implements locksets: the set of locks a thread holds when
// it performs a memory access. The hybrid race condition (§2.2) requires the
// locksets of two accesses to be disjoint (L_i ∩ L_j = ∅): if the accesses
// share a lock they are serialized and cannot race.
//
// Sets are kept as sorted slices; they are tiny in practice (programs rarely
// hold more than a handful of locks), so sorted-slice operations beat maps.
package lockset

import (
	"fmt"
	"strings"

	"racefuzzer/internal/event"
)

// Set is an immutable-by-convention sorted set of lock IDs. The zero value
// is the empty set.
type Set struct {
	ids []event.LockID
}

// Empty returns the empty lockset.
func Empty() Set { return Set{} }

// Of builds a set from the given (possibly unsorted, possibly duplicated)
// lock IDs.
func Of(ids ...event.LockID) Set {
	s := Set{}
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// Len returns the number of locks in the set.
func (s Set) Len() int { return len(s.ids) }

// Contains reports membership.
func (s Set) Contains(id event.LockID) bool {
	for _, x := range s.ids {
		if x == id {
			return true
		}
		if x > id {
			return false
		}
	}
	return false
}

// Add returns s ∪ {id}. The receiver is not modified.
func (s Set) Add(id event.LockID) Set {
	i := 0
	for i < len(s.ids) && s.ids[i] < id {
		i++
	}
	if i < len(s.ids) && s.ids[i] == id {
		return s
	}
	out := make([]event.LockID, 0, len(s.ids)+1)
	out = append(out, s.ids[:i]...)
	out = append(out, id)
	out = append(out, s.ids[i:]...)
	return Set{ids: out}
}

// Remove returns s \ {id}. The receiver is not modified.
func (s Set) Remove(id event.LockID) Set {
	for i, x := range s.ids {
		if x == id {
			out := make([]event.LockID, 0, len(s.ids)-1)
			out = append(out, s.ids[:i]...)
			out = append(out, s.ids[i+1:]...)
			return Set{ids: out}
		}
	}
	return s
}

// Disjoint reports whether s ∩ o = ∅ — the lockset conjunct of the hybrid
// race condition. Runs in O(len(s)+len(o)) over the sorted slices.
func (s Set) Disjoint(o Set) bool {
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		switch {
		case s.ids[i] == o.ids[j]:
			return false
		case s.ids[i] < o.ids[j]:
			i++
		default:
			j++
		}
	}
	return true
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	var out []event.LockID
	i, j := 0, 0
	for i < len(s.ids) && j < len(o.ids) {
		switch {
		case s.ids[i] == o.ids[j]:
			out = append(out, s.ids[i])
			i++
			j++
		case s.ids[i] < o.ids[j]:
			i++
		default:
			j++
		}
	}
	return Set{ids: out}
}

// Slice returns the sorted members as a fresh slice.
func (s Set) Slice() []event.LockID {
	out := make([]event.LockID, len(s.ids))
	copy(out, s.ids)
	return out
}

// Members returns the set's ids in ascending order WITHOUT copying. The
// returned slice is the set's internal storage: callers must treat it as
// read-only. It is safe to retain — Add and Remove build fresh slices, so a
// handed-out slice is never mutated. This is the allocation-free accessor
// the scheduler's event emission uses (one per MEM/LOCK event otherwise).
func (s Set) Members() []event.LockID { return s.ids }

// FromMembers is the inverse of Members: it returns the set of ids, sharing
// ids' storage when ids is strictly ascending — as every slice Members hands
// out is — so the caller must not mutate it afterwards. Any other slice
// (replayed or hand-built events) falls back to Of, which copies.
func FromMembers(ids []event.LockID) Set {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			return Of(ids...)
		}
	}
	return Set{ids: ids}
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	if len(s.ids) != len(o.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != o.ids[i] {
			return false
		}
	}
	return true
}

// Signature returns a compact string that identifies the set's contents,
// used by the hybrid detector to deduplicate per-location access history.
func (s Set) Signature() string {
	if len(s.ids) == 0 {
		return ""
	}
	var b strings.Builder
	for i, id := range s.ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int(id))
	}
	return b.String()
}

func (s Set) String() string {
	if len(s.ids) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ids))
	for i, id := range s.ids {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
