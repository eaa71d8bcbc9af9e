package lockset

import (
	"testing"
	"testing/quick"

	"racefuzzer/internal/event"
)

func fromInts(xs []uint8) Set {
	s := Empty()
	for _, x := range xs {
		s = s.Add(event.LockID(x % 16))
	}
	return s
}

func TestBasicOps(t *testing.T) {
	s := Empty()
	if s.Len() != 0 || s.Contains(1) {
		t.Fatal("empty set wrong")
	}
	s = s.Add(3).Add(1).Add(2).Add(1)
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	for _, id := range []event.LockID{1, 2, 3} {
		if !s.Contains(id) {
			t.Fatalf("missing %v", id)
		}
	}
	if s.Contains(0) || s.Contains(4) {
		t.Fatal("spurious membership")
	}
	got := s.Slice()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("slice not sorted: %v", got)
	}
	s2 := s.Remove(2)
	if s2.Contains(2) || s2.Len() != 2 {
		t.Fatal("remove failed")
	}
	if !s.Contains(2) {
		t.Fatal("Remove mutated the receiver")
	}
	if s.Remove(99).Len() != 3 {
		t.Fatal("removing absent element changed the set")
	}
}

func TestDisjointAndIntersect(t *testing.T) {
	a := Of(1, 3, 5)
	b := Of(2, 4, 6)
	c := Of(5, 6)
	if !a.Disjoint(b) || !b.Disjoint(a) {
		t.Fatal("disjoint sets reported overlapping")
	}
	if a.Disjoint(c) || b.Disjoint(c) {
		t.Fatal("overlapping sets reported disjoint")
	}
	if !Empty().Disjoint(a) || !a.Disjoint(Empty()) {
		t.Fatal("empty set must be disjoint from everything")
	}
	i := a.Intersect(c)
	if i.Len() != 1 || !i.Contains(5) {
		t.Fatalf("intersect = %v", i)
	}
	if !a.Intersect(b).Equal(Empty()) {
		t.Fatal("intersect of disjoint sets nonempty")
	}
}

func TestSignatureAndString(t *testing.T) {
	if Empty().Signature() != "" {
		t.Fatal("empty signature")
	}
	if Of(2, 1).Signature() != "1,2" {
		t.Fatalf("signature = %q", Of(2, 1).Signature())
	}
	if Of(2, 1).String() != "{L1 L2}" {
		t.Fatalf("string = %q", Of(2, 1).String())
	}
	if Empty().String() != "{}" {
		t.Fatal("empty string form")
	}
}

// Property: Disjoint(a,b) ⇔ Intersect(a,b) is empty.
func TestQuickDisjointIffEmptyIntersection(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := fromInts(xs), fromInts(ys)
		return a.Disjoint(b) == (a.Intersect(b).Len() == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add is idempotent and order-independent; result stays sorted.
func TestQuickAddSetSemantics(t *testing.T) {
	f := func(xs []uint8) bool {
		a := fromInts(xs)
		// Re-adding everything changes nothing.
		b := a
		for _, x := range xs {
			b = b.Add(event.LockID(x % 16))
		}
		if !a.Equal(b) {
			return false
		}
		s := a.Slice()
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: membership after Add, non-membership after Remove.
func TestQuickAddRemoveMembership(t *testing.T) {
	f := func(xs []uint8, y uint8) bool {
		id := event.LockID(y % 16)
		a := fromInts(xs)
		if !a.Add(id).Contains(id) {
			return false
		}
		return !a.Remove(id).Contains(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: signature equality ⇔ set equality.
func TestQuickSignatureFaithful(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := fromInts(xs), fromInts(ys)
		return (a.Signature() == b.Signature()) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: FromMembers denotes the same set as Of for any input, and
// round-trips a set's own Members without copying.
func TestQuickFromMembers(t *testing.T) {
	f := func(xs []uint8) bool {
		ids := make([]event.LockID, len(xs))
		for i, x := range xs {
			ids[i] = event.LockID(x % 16)
		}
		if !FromMembers(ids).Equal(Of(ids...)) {
			return false
		}
		m := fromInts(xs).Members()
		back := FromMembers(m).Members()
		return len(m) == 0 || &back[0] == &m[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
