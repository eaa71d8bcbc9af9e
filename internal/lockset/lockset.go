// Package lockset implements locksets: the set of locks a thread holds when
// it performs a memory access. The hybrid race condition (§2.2) requires the
// locksets of two accesses to be disjoint (L_i ∩ L_j = ∅): if the accesses
// share a lock they are serialized and cannot race.
//
// Sets are kept as sorted slices; they are tiny in practice (programs rarely
// hold more than a handful of locks), so sorted-slice operations beat maps.
// Most held sets have one member, so the one-member sets of small lock IDs
// share a static table and building one allocates nothing.
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

// singletons backs the one-member sets {id} for 0 ≤ id < len(singletons):
// singletons[id] == id. Its slices are read-only and capped at length one,
// so an append onto a handed-out Members slice copies instead of writing
// the shared array. Larger IDs allocate their singleton.
var singletons = func() (a [256]event.LockID) {
	for i := range a {
		a[i] = event.LockID(i)
	}
	return a
}()

// singleton returns {id}.
func singleton(id event.LockID) Set {
	if id >= 0 && int(id) < len(singletons) {
		return Set{ids: singletons[id : id+1 : id+1]}
	}
	return Set{ids: []event.LockID{id}}
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
	if len(s.ids) == 0 {
		return singleton(id)
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
			switch len(s.ids) {
			case 1:
				return Set{}
			case 2:
				return singleton(s.ids[1-i])
			}
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
// read-only. It is safe to retain — Add and Remove build fresh slices or
// hand out a shared one-member slice, so a handed-out slice is never
// mutated. This is the allocation-free accessor the scheduler's event
// emission uses (one per MEM/LOCK event otherwise).
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
