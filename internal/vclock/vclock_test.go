package vclock

import (
	"testing"
	"testing/quick"

	"racefuzzer/internal/event"
)

// fromSlice builds a clock from components (test helper).
func fromSlice(xs []int32) *VC {
	c := make([]int32, len(xs))
	for i, x := range xs {
		if x < 0 {
			x = -x
		}
		c[i] = x % 100
	}
	return &VC{c: c}
}

// leq reports a ≤ b component-wise, missing components being zero.
func leq(a, b *VC) bool {
	for i := range a.c {
		if a.Get(event.ThreadID(i)) > b.Get(event.ThreadID(i)) {
			return false
		}
	}
	return true
}

func equal(a, b *VC) bool { return leq(a, b) && leq(b, a) }

func TestBasicOps(t *testing.T) {
	v := New()
	if v.Get(3) != 0 {
		t.Fatal("fresh clock not zero")
	}
	v.Tick(2)
	v.Tick(2)
	v.Tick(0)
	if v.Get(2) != 2 || v.Get(0) != 1 || v.Get(1) != 0 {
		t.Fatalf("clock = %v", v.c)
	}
	c := v.Copy()
	c.Tick(2)
	if v.Get(2) != 2 {
		t.Fatal("Copy is not independent")
	}
}

func TestJoinIsComponentwiseMax(t *testing.T) {
	a := fromSlice([]int32{1, 5, 0, 2})
	b := fromSlice([]int32{3, 1, 4})
	a.Join(b)
	want := []int32{3, 5, 4, 2}
	for i, w := range want {
		if a.Get(event.ThreadID(i)) != w {
			t.Fatalf("join[%d] = %d, want %d", i, a.Get(event.ThreadID(i)), w)
		}
	}
}

// Property: Join is the least upper bound — both operands ≤ join, and join
// is ≤ any other upper bound.
func TestQuickJoinIsLUB(t *testing.T) {
	lub := func(xs, ys []int32) bool {
		a, b := fromSlice(xs), fromSlice(ys)
		j := a.Copy()
		j.Join(b)
		if !leq(a, j) || !leq(b, j) {
			return false
		}
		// Any other upper bound u ≥ j.
		u := a.Copy()
		u.Join(b)
		u.Tick(0)
		return leq(j, u)
	}
	if err := quick.Check(lub, nil); err != nil {
		t.Error(err)
	}
}

// Property: Join is commutative, associative, idempotent.
func TestQuickJoinAlgebra(t *testing.T) {
	comm := func(xs, ys []int32) bool {
		a1, b1 := fromSlice(xs), fromSlice(ys)
		a1.Join(b1)
		b2, a2 := fromSlice(ys), fromSlice(xs)
		b2.Join(a2)
		return equal(a1, b2)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	idem := func(xs []int32) bool {
		a := fromSlice(xs)
		b := a.Copy()
		a.Join(b)
		return equal(a, b)
	}
	if err := quick.Check(idem, nil); err != nil {
		t.Error(err)
	}
	assoc := func(xs, ys, zs []int32) bool {
		l := fromSlice(xs)
		l2 := fromSlice(ys)
		l2.Join(fromSlice(zs))
		l.Join(l2) // a ⊔ (b ⊔ c)
		r := fromSlice(xs)
		r.Join(fromSlice(ys))
		r.Join(fromSlice(zs)) // (a ⊔ b) ⊔ c
		return equal(l, r)
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
}

// Property: Tick strictly increases the clock in the ordering.
func TestQuickTickIncreases(t *testing.T) {
	f := func(xs []int32, tid uint8) bool {
		a := fromSlice(xs)
		before := a.Copy()
		a.Tick(event.ThreadID(tid % 8))
		return leq(before, a) && !leq(a, before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLenAndGrowth(t *testing.T) {
	v := New()
	if len(v.c) != 0 || v.Get(-1) != 0 {
		t.Fatal("fresh length")
	}
	v.Tick(9)
	if len(v.c) != 10 || v.Get(9) != 1 || v.Get(5) != 0 {
		t.Fatalf("growth wrong: len=%d", len(v.c))
	}
	v.Join(fromSlice([]int32{1, 2}))
	if len(v.c) != 10 || v.Get(1) != 2 || v.Get(9) != 1 {
		t.Fatalf("join of a shorter clock: %v", v.c)
	}
}
