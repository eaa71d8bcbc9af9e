package sched

import (
	"fmt"
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
)

// TestLocNames pins LocName for every kind of location against the eager
// formatting the model layer used before names became lazy: plain names,
// array elements (name + "[" + i + "]"), indexed names (a collection
// node's fmt.Sprintf("%s.node%d", …) + field), interrupt-status locations
// and IDs outside the table.
func TestLocNames(t *testing.T) {
	type check struct {
		loc  event.MemLoc
		want string
	}
	var checks []check
	var got []string
	var next event.MemLoc
	Run(func(mt *Thread) {
		s := mt.Scheduler()
		plain := s.NewLoc("x")
		arr := s.NewLocRange("arr", 12)
		node := s.NewLocIndexed("list.node", 3, ".next")
		worker := mt.Fork("worker", func(*Thread) {})
		last := s.NewLoc("last")
		checks = []check{
			{plain, "x"},
			{arr, "arr[0]"},
			{arr + 7, "arr[7]"},
			{arr + 11, "arr[11]"},
			{node, fmt.Sprintf("%s.node%d", "list", 3) + ".next"},
			{mt.intrLoc, "main(T0).interrupt"},
			{worker.intrLoc, "worker(T1).interrupt"},
			{last, "last"},
			{last + 1, fmt.Sprint(last + 1)},
			{event.NoLoc, event.NoLoc.String()},
			{event.MemLoc(999), "m999"},
		}
		for _, c := range checks {
			got = append(got, s.LocName(c.loc))
		}
		next = s.nextLoc
		mt.Join(worker)
	}, Config{Seed: 1})
	for i, c := range checks {
		if got[i] != c.want {
			t.Errorf("LocName(%d) = %q, want %q", c.loc, got[i], c.want)
		}
	}
	// x, arr (12), the node, two interrupt locations and last.
	if want := event.MemLoc(1 + 12 + 1 + 2 + 1); next != want {
		t.Errorf("allocated %d locations, want %d", next, want)
	}
}

// TestEmptyLocRange: an n == 0 range takes no location. The location after
// it keeps its own name, and a trailing empty range names nothing.
func TestEmptyLocRange(t *testing.T) {
	var first, after, trailing event.MemLoc
	var afterName, trailingName string
	Run(func(mt *Thread) {
		s := mt.Scheduler()
		first = s.NewLocRange("none", 0)
		after = s.NewLoc("after")
		afterName = s.LocName(after)
		trailing = s.NewLocRange("tail", 0)
		trailingName = s.LocName(trailing)
	}, Config{Seed: 1})
	if first != after {
		t.Errorf("empty range reserved a location: first %d, next %d", first, after)
	}
	if afterName != "after" {
		t.Errorf("location after an empty range is named %q, want \"after\"", afterName)
	}
	if trailingName != trailing.String() {
		t.Errorf("trailing empty range names %q, want the out-of-range %q", trailingName, trailing.String())
	}
}

// TestLocNamesMatchEagerTable allocates a random mix of plain locations,
// ranges (empty ones included) and indexed names, and checks every
// location against a table filled the old way: one formatted string per
// location, appended in allocation order.
func TestLocNamesMatchEagerTable(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rng.New(seed)
		var eager, lazy []string
		Run(func(mt *Thread) {
			s := mt.Scheduler()
			eager = append(eager, fmt.Sprintf("main(T%d).interrupt", 0))
			for i := 0; i < 40; i++ {
				name := fmt.Sprintf("v%d", i)
				switch r.Intn(3) {
				case 0:
					s.NewLoc(name)
					eager = append(eager, name)
				case 1:
					n := r.Intn(5)
					s.NewLocRange(name, n)
					for j := 0; j < n; j++ {
						eager = append(eager, name+"["+fmt.Sprint(j)+"]")
					}
				case 2:
					k := r.Intn(300)
					s.NewLocIndexed(name+".entry", k, ".next")
					eager = append(eager, fmt.Sprintf("%s.entry%d", name, k)+".next")
				}
			}
			for loc := range eager {
				lazy = append(lazy, s.LocName(event.MemLoc(loc)))
			}
			lazy = append(lazy, s.LocName(event.MemLoc(len(eager))))
		}, Config{Seed: seed})
		for loc, want := range eager {
			if lazy[loc] != want {
				t.Fatalf("seed %d: LocName(%d) = %q, want %q", seed, loc, lazy[loc], want)
			}
		}
		if past := lazy[len(eager)]; past != event.MemLoc(len(eager)).String() {
			t.Fatalf("seed %d: LocName past the end = %q", seed, past)
		}
	}
}
