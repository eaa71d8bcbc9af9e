package core

import (
	"fmt"
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/sched"
)

// namedLocsProgram has three workers write, at one statement, every
// element of a 4-element range, an indexed node field and a plain
// location, each worker in its own order. It reports each location's name
// as the model layer used to format it eagerly.
func namedLocsProgram(stmt event.Stmt, names map[event.MemLoc]string) Program {
	return func(mt *sched.Thread) {
		s := mt.Scheduler()
		arr := s.NewLocRange("arr", 4)
		locs := []event.MemLoc{arr, arr + 1, arr + 2, arr + 3,
			s.NewLocIndexed("list.node", 7, ".next"), s.NewLoc("plain")}
		for i := 0; i < 4; i++ {
			names[arr+event.MemLoc(i)] = "arr[" + fmt.Sprint(i) + "]"
		}
		names[locs[4]] = fmt.Sprintf("%s.node%d", "list", 7) + ".next"
		names[locs[5]] = "plain"
		var kids []*sched.Thread
		for w := 0; w < 3; w++ {
			w := w
			kids = append(kids, mt.Fork("w", func(c *sched.Thread) {
				for i := range locs {
					c.MemWrite(locs[(i*(w+1))%len(locs)], stmt)
				}
			}))
		}
		for _, k := range kids {
			mt.Join(k)
		}
	}
}

// checkActionNames fails unless every recorded action on a location
// carries that location's name, and actions without one carry none.
func checkActionNames(t *testing.T, seed int64, acts []flightrec.Action, names map[event.MemLoc]string) (named int) {
	t.Helper()
	for _, a := range acts {
		if a.Loc == int(event.NoLoc) {
			if a.LocName != "" {
				t.Fatalf("seed %d: %s action without a location is named %q", seed, a.Kind, a.LocName)
			}
			continue
		}
		want, ok := names[event.MemLoc(a.Loc)]
		if !ok || a.LocName != want {
			t.Fatalf("seed %d: %s action on m%d is named %q, want %q", seed, a.Kind, a.Loc, a.LocName, want)
		}
		named++
	}
	return named
}

// TestRecordedActionsCarryLocNames: names are resolved in View.Act only
// when a flight recorder is attached. Every race, violation and postpone
// on a range element, indexed field or plain location must still carry the
// exact name ("mn" on the wire) the policies used to fill in eagerly, and
// so must the RealRace findings.
func TestRecordedActionsCarryLocNames(t *testing.T) {
	stmt := event.StmtFor("locname:w")
	var named, races int
	for seed := int64(0); seed < 10; seed++ {
		names := map[event.MemLoc]string{}
		pol := NewRaceFuzzerPolicy(event.MakeStmtPair(stmt, stmt))
		rec := flightrec.NewRecorder(flightrec.Header{Seed: seed})
		res := sched.Run(namedLocsProgram(stmt, names), sched.Config{Seed: seed, Policy: pol, Observers: []sched.Observer{rec}})
		rec.Finish(res)
		named += checkActionNames(t, seed, rec.Recording().Actions(), names)
		for _, rr := range pol.Races() {
			if rr.LocName != names[rr.Loc] {
				t.Fatalf("seed %d: race on m%d named %q, want %q", seed, rr.Loc, rr.LocName, names[rr.Loc])
			}
			races++
		}
	}
	if named == 0 || races == 0 {
		t.Fatalf("no named actions (%d) or races (%d) recorded: the program no longer exercises the policy", named, races)
	}

	first, second, inter := event.StmtFor("locname:first"), event.StmtFor("locname:second"), event.StmtFor("locname:inter")
	var violations int
	for seed := int64(0); seed < 10; seed++ {
		names := map[event.MemLoc]string{}
		prog := func(mt *sched.Thread) {
			arr := mt.Scheduler().NewLocRange("arr", 3)
			names[arr+2] = "arr[2]"
			victim := mt.Fork("victim", func(c *sched.Thread) {
				c.MemRead(arr+2, first)
				c.MemWrite(arr+2, second)
			})
			interferer := mt.Fork("interferer", func(c *sched.Thread) { c.MemWrite(arr+2, inter) })
			mt.Join(victim)
			mt.Join(interferer)
		}
		pol := &AtomicityDirectedPolicy{Target: AtomicityTarget{First: first, Second: second, Interferers: []event.Stmt{inter}}}
		rec := flightrec.NewRecorder(flightrec.Header{Seed: seed})
		res := sched.Run(prog, sched.Config{Seed: seed, Policy: pol, Observers: []sched.Observer{rec}})
		rec.Finish(res)
		checkActionNames(t, seed, rec.Recording().Actions(), names)
		violations += len(pol.Violations())
	}
	if violations == 0 {
		t.Fatal("no atomicity violation recorded: the program no longer exercises the violation action")
	}
}

// TestRaceFuzzerPostponeOnElementDoesNotAllocate: with names rendered on
// demand, a policy that resolved them for every postpone would allocate
// on each array-element access. Without a flight recorder the postpone
// path must stay allocation-free.
func TestRaceFuzzerPostponeOnElementDoesNotAllocate(t *testing.T) {
	target := event.StmtFor("alloc:rf-elem")
	prog := func(mt *sched.Thread) {
		s := mt.Scheduler()
		own := s.NewLocRange("own", 3)
		var kids []*sched.Thread
		for i := 0; i < 3; i++ {
			loc := own + event.MemLoc(i)
			kids = append(kids, mt.Fork("w", func(c *sched.Thread) { c.MemWrite(loc, target) }))
		}
		for _, k := range kids {
			mt.Join(k)
		}
	}
	pol := &RaceFuzzerPolicy{Target: event.MakeStmtPair(target, target), MaxPostponeAge: 3}
	runAllocProbe(t, prog, &allocProbe{inner: pol, ready: func(v *sched.View) bool {
		return pendingKinds(v, func(op sched.Op) bool { return op.IsMem() && op.Stmt == target }) == 3
	}})
	if len(pol.Races()) != 0 {
		t.Fatalf("distinct elements cannot race: %v", pol.Races())
	}
	if released, aged := pol.Stats(); released == 0 && aged == 0 {
		t.Fatal("probe never postponed a thread long enough to release it")
	}
}
