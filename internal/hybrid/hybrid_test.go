package hybrid_test

import (
	"fmt"
	"sync"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/lockset"
	"racefuzzer/internal/progen"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/vclock"
)

// feed builds an event stream directly — the detector is a pure function of
// the stream, so these tests pin the hybrid race condition precisely.

func mem(t event.ThreadID, stmt string, loc event.MemLoc, w bool, locks ...event.LockID) event.Event {
	a := event.Read
	if w {
		a = event.Write
	}
	return event.Event{Kind: event.KindMem, Thread: t, Stmt: event.StmtFor(stmt), Loc: loc, Access: a, Locks: locks}
}

func snd(t event.ThreadID, g event.MsgID) event.Event {
	return event.Event{Kind: event.KindSnd, Thread: t, Msg: g}
}

func rcv(t event.ThreadID, g event.MsgID) event.Event {
	return event.Event{Kind: event.KindRcv, Thread: t, Msg: g}
}

func run(events ...event.Event) *hybrid.Detector {
	d := hybrid.New()
	for _, e := range events {
		d.OnEvent(e)
	}
	return d
}

func pairOf(a, b string) event.StmtPair {
	return event.MakeStmtPair(event.StmtFor(a), event.StmtFor(b))
}

func TestWriteWriteRaceDetected(t *testing.T) {
	d := run(
		mem(0, "h:w1", 1, true),
		mem(1, "h:w2", 1, true),
	)
	ps := d.Pairs()
	if len(ps) != 1 || ps[0] != pairOf("h:w1", "h:w2") {
		t.Fatalf("pairs = %v", ps)
	}
	if d.MemEvents() != 2 {
		t.Fatalf("mem events = %d", d.MemEvents())
	}
}

func TestReadReadIsNotARace(t *testing.T) {
	d := run(
		mem(0, "h:r1", 1, false),
		mem(1, "h:r2", 1, false),
	)
	if len(d.Pairs()) != 0 {
		t.Fatalf("read-read reported: %v", d.Pairs())
	}
}

func TestSameThreadIsNotARace(t *testing.T) {
	d := run(
		mem(0, "h:a", 1, true),
		mem(0, "h:b", 1, true),
	)
	if len(d.Pairs()) != 0 {
		t.Fatalf("same-thread accesses reported: %v", d.Pairs())
	}
}

func TestDifferentLocationsNoRace(t *testing.T) {
	d := run(
		mem(0, "h:a", 1, true),
		mem(1, "h:b", 2, true),
	)
	if len(d.Pairs()) != 0 {
		t.Fatalf("different locations reported: %v", d.Pairs())
	}
}

func TestCommonLockSuppressesRace(t *testing.T) {
	d := run(
		mem(0, "h:la", 1, true, 5),
		mem(1, "h:lb", 1, true, 5),
	)
	if len(d.Pairs()) != 0 {
		t.Fatalf("lock-protected accesses reported: %v", d.Pairs())
	}
	// Disjoint locksets still race.
	d2 := run(
		mem(0, "h:lc", 1, true, 5),
		mem(1, "h:ld", 1, true, 6),
	)
	if len(d2.Pairs()) != 1 {
		t.Fatalf("disjoint locksets not reported: %v", d2.Pairs())
	}
}

func TestHappensBeforeSuppressesRace(t *testing.T) {
	// T0 writes, then sends g1; T1 receives g1 and writes: ordered.
	d := run(
		mem(0, "h:hb-w0", 1, true),
		snd(0, 1),
		rcv(1, 1),
		mem(1, "h:hb-w1", 1, true),
	)
	if len(d.Pairs()) != 0 {
		t.Fatalf("fork-ordered accesses reported: %v", d.Pairs())
	}
	// Without the message, the same accesses race.
	d2 := run(
		mem(0, "h:hb-w0b", 1, true),
		mem(1, "h:hb-w1b", 1, true),
	)
	if len(d2.Pairs()) != 1 {
		t.Fatal("unordered accesses not reported")
	}
}

func TestTransitiveHappensBefore(t *testing.T) {
	// T0 → T1 → T2 chain: T0's write ordered before T2's write through T1.
	d := run(
		mem(0, "h:t0", 1, true),
		snd(0, 1),
		rcv(1, 1),
		snd(1, 2),
		rcv(2, 2),
		mem(2, "h:t2", 1, true),
	)
	if len(d.Pairs()) != 0 {
		t.Fatalf("transitively ordered accesses reported: %v", d.Pairs())
	}
}

func TestLockEdgesDoNotOrder(t *testing.T) {
	// The hybrid relation deliberately ignores lock edges: a release→acquire
	// chain does NOT order accesses (that's what makes it predictive).
	d := run(
		mem(0, "h:fw", 1, true), // write x with no lock held
		event.Event{Kind: event.KindLock, Thread: 0, Lock: 9},
		event.Event{Kind: event.KindUnlock, Thread: 0, Lock: 9},
		event.Event{Kind: event.KindLock, Thread: 1, Lock: 9},
		event.Event{Kind: event.KindUnlock, Thread: 1, Lock: 9},
		mem(1, "h:fr", 1, false), // read x with no lock held
	)
	if len(d.Pairs()) != 1 {
		t.Fatalf("hybrid should predict the Figure-1-style race: %v", d.Pairs())
	}
}

func TestPairsAreDeduplicated(t *testing.T) {
	var evs []event.Event
	for i := 0; i < 10; i++ {
		evs = append(evs, mem(0, "h:dw", 1, true), mem(1, "h:dr", 1, false))
	}
	d := run(evs...)
	ps := d.Pairs()
	if len(ps) != 1 {
		t.Fatalf("pairs not deduplicated: %v", ps)
	}
	infos := d.Races()
	if len(infos) != 1 || infos[0].Count < 10 {
		t.Fatalf("race info = %+v", infos)
	}
}

func TestSelfPairTwoThreadsSameStmt(t *testing.T) {
	d := run(
		mem(0, "h:same", 1, true),
		mem(1, "h:same", 1, true),
	)
	ps := d.Pairs()
	if len(ps) != 1 || ps[0] != pairOf("h:same", "h:same") {
		t.Fatalf("self-pair = %v", ps)
	}
}

func TestRepeatAccessesShareOneEntry(t *testing.T) {
	// Thread 0 writes 50 times from one statement: the location's history
	// keeps one entry for that key, so thread 1's final read matches it once
	// (the reference model matches all 50 writes) and still races.
	var evs []event.Event
	for i := 0; i < 50; i++ {
		evs = append(evs, mem(0, "h:bw", 1, true))
	}
	evs = append(evs, mem(1, "h:br", 1, false))
	d := run(evs...)
	infos := d.Races()
	if len(infos) != 1 || infos[0].Pair != pairOf("h:bw", "h:br") {
		t.Fatalf("deduplicated history lost the race: %+v", infos)
	}
	if infos[0].Count != 1 {
		t.Fatalf("count = %d, want 1 match against one history entry", infos[0].Count)
	}
	ref := newReference()
	for _, e := range evs {
		ref.OnEvent(e)
	}
	if n := ref.races[pairOf("h:bw", "h:br")].Count; n != 50 {
		t.Fatalf("reference count = %d, want 50", n)
	}
}

func TestWriteReadAndReadWriteBothDetected(t *testing.T) {
	d := run(
		mem(0, "h:x-read", 1, false),
		mem(1, "h:x-write", 1, true), // read-then-write: race
		mem(0, "h:y-write", 2, true),
		mem(1, "h:y-read", 2, false), // write-then-read: race
	)
	ps := d.Pairs()
	if len(ps) != 2 {
		t.Fatalf("pairs = %v", ps)
	}
}

func TestOnEventRepeatAccessDoesNotAllocate(t *testing.T) {
	for _, locks := range [][]event.LockID{nil, {2, 5}} {
		d := hybrid.New()
		w := mem(0, "h:aw", 1, true, locks...)
		r := mem(1, "h:ar", 1, false)
		d.OnEvent(w)
		d.OnEvent(r) // the pair now exists; repeats only bump its Count
		if n := testing.AllocsPerRun(100, func() {
			d.OnEvent(w)
			d.OnEvent(r)
		}); n != 0 {
			t.Errorf("locks %v: %.1f allocs per repeated MEM pair, want 0", locks, n)
		}
		if len(d.Pairs()) != 1 {
			t.Fatalf("locks %v: pairs = %v", locks, d.Pairs())
		}
	}
}

// reference is the detector without epochs or history deduplication: it
// snapshots the whole clock and builds a lockset on every MEM event and
// remembers every access. Detector must report exactly its pairs.
type reference struct {
	vcs   map[event.ThreadID]*vclock.VC
	msgs  map[event.MsgID]*vclock.VC
	hist  map[event.MemLoc][]refAccess
	races map[event.StmtPair]*hybrid.RaceInfo
}

type refAccess struct {
	thread event.ThreadID
	stmt   event.Stmt
	write  bool
	locks  lockset.Set
	vc     *vclock.VC
}

func newReference() *reference {
	return &reference{
		vcs:   make(map[event.ThreadID]*vclock.VC),
		msgs:  make(map[event.MsgID]*vclock.VC),
		hist:  make(map[event.MemLoc][]refAccess),
		races: make(map[event.StmtPair]*hybrid.RaceInfo),
	}
}

func (d *reference) clock(t event.ThreadID) *vclock.VC {
	vc, ok := d.vcs[t]
	if !ok {
		vc = vclock.New()
		vc.Tick(t)
		d.vcs[t] = vc
	}
	return vc
}

func (d *reference) OnEvent(e event.Event) {
	switch e.Kind {
	case event.KindSnd:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		d.msgs[e.Msg] = vc.Copy()
	case event.KindRcv:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		if mc, ok := d.msgs[e.Msg]; ok {
			vc.Join(mc)
		}
	case event.KindMem:
		vc := d.clock(e.Thread)
		vc.Tick(e.Thread)
		snap := vc.Copy()
		ls := lockset.Of(e.Locks...)
		for _, p := range d.hist[e.Loc] {
			if p.thread == e.Thread || !p.write && e.Access != event.Write ||
				!p.locks.Disjoint(ls) || p.vc.Get(p.thread) <= snap.Get(p.thread) {
				continue
			}
			pair := event.MakeStmtPair(p.stmt, e.Stmt)
			info, ok := d.races[pair]
			if !ok {
				info = &hybrid.RaceInfo{Pair: pair, Loc: e.Loc, First: e.Step}
				d.races[pair] = info
			}
			info.Count++
		}
		d.hist[e.Loc] = append(d.hist[e.Loc], refAccess{
			thread: e.Thread, stmt: e.Stmt, write: e.Access == event.Write, locks: ls, vc: snap,
		})
	}
}

// TestMatchesReferenceModel runs Detector and the reference side by side
// over every registry model and 60 generated programs, several seeds each:
// the pairs and each pair's Loc and First must be identical, and Count can
// only shrink with the deduplicated history.
func TestMatchesReferenceModel(t *testing.T) {
	compare := func(name string, d *hybrid.Detector, ref *reference) {
		t.Helper()
		want := make([]event.StmtPair, 0, len(ref.races))
		for p := range ref.races {
			want = append(want, p)
		}
		event.SortStmtPairs(want)
		if got := d.Pairs(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: pairs %v, reference %v", name, got, want)
		}
		for _, got := range d.Races() {
			r := ref.races[got.Pair]
			if got.Loc != r.Loc || got.First != r.First || got.Count < 1 || got.Count > r.Count {
				t.Fatalf("%s: race %+v, reference %+v", name, got, *r)
			}
		}
	}
	observe := func(name string, prog func(*sched.Thread), seed int64, maxSteps int) {
		d, ref := hybrid.New(), newReference()
		sched.Run(prog, sched.Config{Seed: seed, Observers: []sched.Observer{d, ref}, MaxSteps: maxSteps})
		compare(fmt.Sprintf("%s seed %d", name, seed), d, ref)
	}
	for _, b := range bench.All() {
		for seed := int64(0); seed < 3; seed++ {
			observe(b.Name, b.New(), seed, b.MaxSteps)
		}
	}
	for gseed := int64(0); gseed < 60; gseed++ {
		p := progen.Generate(gseed, progen.Config{Threads: 2 + int(gseed%5)})
		for seed := int64(0); seed < 4; seed++ {
			observe(fmt.Sprintf("progen %d", gseed), p.Body(nil), 1000*gseed+seed, 100_000)
		}
	}
	// Hand-built streams pin each part of the history key. In the first
	// three, a later access races only with the newest epoch, the lock-free
	// write, or the write of a key that an older access shares in all else.
	// The last carries unsorted and duplicated locksets, as replayed streams
	// may, which take lockset.Of's path.
	for _, tc := range []struct {
		name string
		evs  []event.Event
	}{
		{"epoch", []event.Event{mem(0, "h:k1", 1, true), snd(0, 1), rcv(1, 1),
			mem(0, "h:k1", 1, true), mem(1, "h:k2", 1, false)}},
		{"lockset", []event.Event{mem(0, "h:k3", 1, true, 1), mem(0, "h:k3", 1, true),
			mem(1, "h:k4", 1, true, 1)}},
		{"access", []event.Event{mem(0, "h:k5", 1, false), mem(0, "h:k5", 1, true),
			mem(1, "h:k6", 1, false)}},
		{"unsorted locks", []event.Event{mem(0, "h:u1", 1, true, 6, 5, 6), mem(1, "h:u2", 1, true, 5),
			mem(0, "h:u1", 1, true, 5, 6), mem(2, "h:u3", 1, false, 7, 3),
			mem(1, "h:u2", 1, true), mem(2, "h:u3", 1, false, 3, 7)}},
	} {
		d, ref := hybrid.New(), newReference()
		for _, e := range tc.evs {
			d.OnEvent(e)
			ref.OnEvent(e)
		}
		if len(ref.races) == 0 {
			t.Fatalf("%s: stream has no race to check", tc.name)
		}
		compare(tc.name, d, ref)
	}
}

// recorder keeps a run's event stream for replay.
type recorder struct{ evs []event.Event }

func (r *recorder) OnEvent(e event.Event) { r.evs = append(r.evs, e) }

// sameVerdicts fails t unless got and want report the same pairs and the
// same evidence for each.
func sameVerdicts(t *testing.T, name string, got, want *hybrid.Detector) {
	t.Helper()
	if g, w := fmt.Sprint(got.Pairs()), fmt.Sprint(want.Pairs()); g != w {
		t.Fatalf("%s: pairs %s, want %s", name, g, w)
	}
	if g, w := fmt.Sprintf("%+v", got.Races()), fmt.Sprintf("%+v", want.Races()); g != w {
		t.Fatalf("%s: races %s, want %s", name, g, w)
	}
	if got.MemEvents() != want.MemEvents() {
		t.Fatalf("%s: %d MEM events, want %d", name, got.MemEvents(), want.MemEvents())
	}
}

// TestRecycledMatchesFresh: one detector, recycled after every run across
// every registry model and 20 seeds, reports exactly what a never-used
// detector reports on the same run.
func TestRecycledMatchesFresh(t *testing.T) {
	rec := hybrid.NewUnpooled()
	for _, b := range bench.All() {
		for seed := int64(0); seed < 20; seed++ {
			fresh := hybrid.NewUnpooled()
			sched.Run(b.New(), sched.Config{Seed: seed, Observers: []sched.Observer{fresh, rec}, MaxSteps: b.MaxSteps})
			sameVerdicts(t, fmt.Sprintf("%s seed %d", b.Name, seed), rec, fresh)
			rec.Recycle()
		}
	}
}

// TestRecycledAfterLargeModelNoBleed: a detector recycled after a large
// model reports exactly figure1's pairs on figure1 — no clock, history or
// race of the earlier run survives the recycling.
func TestRecycledAfterLargeModelNoBleed(t *testing.T) {
	sor, _ := bench.ByName("sor")
	fig1, _ := bench.ByName("figure1")
	d := hybrid.NewUnpooled()
	sched.Run(sor.New(), sched.Config{Seed: 3, Observers: []sched.Observer{d}, MaxSteps: sor.MaxSteps})
	if len(d.Pairs()) == 0 {
		t.Fatal("sor reported no pairs: nothing could bleed")
	}
	d.Recycle()
	fresh := hybrid.NewUnpooled()
	sched.Run(fig1.New(), sched.Config{Seed: 3, Observers: []sched.Observer{d, fresh}, MaxSteps: fig1.MaxSteps})
	sameVerdicts(t, "figure1 after sor", d, fresh)
	if len(fresh.Pairs()) == 0 {
		t.Fatal("figure1 reported no pairs")
	}
}

// TestPoolConcurrentUse: goroutines drawing detectors from New and handing
// them back with Release each get an empty detector (run with -race).
func TestPoolConcurrentUse(t *testing.T) {
	fig1, _ := bench.ByName("figure1")
	sor, _ := bench.ByName("sor")
	want := make([]string, 4)
	for seed := range want {
		d := hybrid.NewUnpooled()
		sched.Run(fig1.New(), sched.Config{Seed: int64(seed), Observers: []sched.Observer{d}, MaxSteps: fig1.MaxSteps})
		want[seed] = fmt.Sprintf("%v %+v", d.Pairs(), d.Races())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Interleave a larger model so the pool holds used storage.
				d := hybrid.New()
				sched.Run(sor.New(), sched.Config{Seed: int64(i), Observers: []sched.Observer{d}, MaxSteps: sor.MaxSteps})
				d.Release()
				seed := (g + i) % len(want)
				d = hybrid.New()
				sched.Run(fig1.New(), sched.Config{Seed: int64(seed), Observers: []sched.Observer{d}, MaxSteps: fig1.MaxSteps})
				if got := fmt.Sprintf("%v %+v", d.Pairs(), d.Races()); got != want[seed] {
					t.Errorf("goroutine %d run %d: %s, want %s", g, i, got, want[seed])
				}
				d.Release()
			}
		}(g)
	}
	wg.Wait()
}

// TestRecycledReplayZeroAllocs: a detector that has seen a run once
// replays the same run, after recycling, without allocating.
func TestRecycledReplayZeroAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("allocation counts differ under -race")
	}
	for _, b := range bench.All() {
		var r recorder
		d := hybrid.NewUnpooled()
		sched.Run(b.New(), sched.Config{Seed: 1, Observers: []sched.Observer{&r, d}, MaxSteps: b.MaxSteps})
		want := fmt.Sprint(d.Pairs())
		if n := testing.AllocsPerRun(5, func() {
			d.Recycle()
			for _, e := range r.evs {
				d.OnEvent(e)
			}
		}); n != 0 {
			t.Errorf("%s: %.1f allocs per replay of %d events, want 0", b.Name, n, len(r.evs))
		}
		if got := fmt.Sprint(d.Pairs()); got != want {
			t.Fatalf("%s: replay reported %s, want %s", b.Name, got, want)
		}
	}
}
