package collections

import (
	"fmt"
	"testing"

	"racefuzzer/internal/conc"
	"racefuzzer/internal/event"
)

// TestNodeNamesMatchEagerFormatting walks every location a run of the four
// node-based collections allocates and checks its name against the
// formatting the collections used to do per node (fmt.Sprintf plus field
// suffixes): lazy naming must not change a byte.
func TestNodeNamesMatchEagerFormatting(t *testing.T) {
	var got []string
	single(t, func(mt *conc.Thread) {
		ts := NewTreeSet(mt, "ts")
		ts.Add(mt, 5)
		ts.Add(mt, 3)
		hs := NewHashSet(mt, "hs")
		hs.Add(mt, 1)
		hs.Add(mt, 2)
		ll := NewLinkedList(mt, "ll")
		ll.Add(mt, 1)
		ll.Add(mt, 2)
		hm := NewHashMap(mt, "hm")
		hm.Put(mt, 1, 10)
		hm.Put(mt, 2, 20)
		s := mt.Scheduler()
		end := s.NewLoc("end")
		for loc := event.MemLoc(0); loc < end; loc++ {
			got = append(got, s.LocName(loc))
		}
	})
	want := []string{"main(T0).interrupt", "ts.root", "ts.size", "ts.modCount"}
	for i := 1; i <= 2; i++ {
		base := fmt.Sprintf("%s.node%d", "ts", i)
		want = append(want, base+".left", base+".right")
	}
	table := func(name string) {
		for b := 0; b < hsBuckets; b++ {
			want = append(want, fmt.Sprintf("%s.table[%d]", name, b))
		}
		want = append(want, name+".size", name+".modCount")
	}
	table("hs")
	for i := 1; i <= 2; i++ {
		want = append(want, fmt.Sprintf("%s.entry%d.next", "hs", i))
	}
	want = append(want, "ll.header.next", "ll.header.prev", "ll.size", "ll.modCount")
	for i := 1; i <= 2; i++ {
		base := fmt.Sprintf("%s.node%d", "ll", i)
		want = append(want, base+".next", base+".prev")
	}
	table("hm")
	for i := 1; i <= 2; i++ {
		base := fmt.Sprintf("%s.entry%d", "hm", i)
		want = append(want, base+".value", base+".next")
	}
	if len(got) != len(want) {
		t.Fatalf("allocated %d locations, want %d:\n got %q\nwant %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("location %d named %q, want %q", i, got[i], want[i])
		}
	}
}
