package event

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestStmtInterning(t *testing.T) {
	a := StmtFor("pkg/file.go:10")
	b := StmtFor("pkg/file.go:10")
	c := StmtFor("pkg/file.go:11")
	if a != b {
		t.Fatal("same name interned to different Stmts")
	}
	if a == c {
		t.Fatal("different names interned to same Stmt")
	}
	if a.Name() != "pkg/file.go:10" {
		t.Fatalf("Name = %q", a.Name())
	}
	if NoStmt.Name() != "" || NoStmt.String() != "<unlabeled>" {
		t.Fatal("NoStmt rendering wrong")
	}
}

// stmtForRuns gives each TestStmtForConcurrent run (-count=N) fresh names.
var stmtForRuns int

// TestStmtForConcurrent interns one set of new labels from several
// goroutines at once, each in its own order (run it under -race): all
// must agree on one Stmt per name, each name must round-trip through
// Name, and IDs must stay dense — a racing miss must never intern a name
// twice.
func TestStmtForConcurrent(t *testing.T) {
	const workers, names = 8, 200
	stmtForRuns++
	label := func(i int) string { return fmt.Sprintf("concurrent%d:%d", stmtForRuns, i) }
	before := StmtFor(label(-1))
	got := make([][]Stmt, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]Stmt, names)
			for k := 0; k < names; k++ {
				i := (k + w*names/workers) % names
				ids[i] = StmtFor(label(i))
				if n := ids[i].Name(); n != label(i) {
					t.Errorf("Name = %q for %s", n, label(i))
				}
			}
			got[w] = ids
		}()
	}
	wg.Wait()
	for i := 0; i < names; i++ {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("%s interned as %d and %d", label(i), got[0][i], got[w][i])
			}
		}
	}
	if after := StmtFor(label(names)); after != before+names+1 {
		t.Fatalf("%d new names took IDs %d..%d: a name was interned twice", names, before+1, after-1)
	}
}

func TestCallerStmt(t *testing.T) {
	s := CallerStmt(0)
	if !strings.Contains(s.Name(), "event_test.go") {
		t.Fatalf("CallerStmt = %q, want this file", s.Name())
	}
	// Two calls on different lines must differ.
	s2 := CallerStmt(0)
	if s == s2 {
		t.Fatal("different lines share a Stmt")
	}
}

// TestCallerStmtHitPathDoesNotAllocate: once a call site is memoized, the
// lookup must not heap-allocate — model programs label every Fork, Join and
// Interrupt this way on every execution.
func TestCallerStmtHitPathDoesNotAllocate(t *testing.T) {
	var s Stmt
	label := func() { s = CallerStmt(0) }
	label() // miss: resolve and memoize the site
	if n := testing.AllocsPerRun(200, label); n != 0 {
		t.Fatalf("memoized CallerStmt allocates %.2f times per call, want 0", n)
	}
	if !strings.Contains(s.Name(), "event_test.go") {
		t.Fatalf("CallerStmt = %q, want this file", s.Name())
	}
}

// siteRuns gives each TestSite run (-count=N) fresh names.
var siteRuns int

// TestSite: a Site interns its name on first use and then hands out the
// cached ID. Racing first uses agree on one ID, Sites of one name share it,
// the first Stmt call (not declaration order) decides the number, and the
// warm path does not allocate.
func TestSite(t *testing.T) {
	siteRuns++
	name := func(s string) string { return fmt.Sprintf("site%d:%s", siteRuns, s) }

	racy := &Site{Name: name("racy")}
	const workers = 8
	got := make([]Stmt, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = racy.Stmt()
		}()
	}
	wg.Wait()
	for w, s := range got {
		if s != got[0] || s.Name() != racy.Name {
			t.Fatalf("worker %d got %d (%q), worker 0 got %d", w, s, s.Name(), got[0])
		}
	}

	a, b := &Site{Name: name("shared")}, &Site{Name: name("shared")}
	if a.Stmt() != b.Stmt() || a.Stmt() != StmtFor(a.Name) {
		t.Fatalf("same-name sites got %d and %d", a.Stmt(), b.Stmt())
	}

	declaredFirst, usedFirst := &Site{Name: name("declared first")}, &Site{Name: name("used first")}
	u := usedFirst.Stmt()
	d := declaredFirst.Stmt()
	if u >= d {
		t.Fatalf("first-used site got %d, later-used site %d: want first use to number first", u, d)
	}

	var warm Stmt
	if n := testing.AllocsPerRun(200, func() { warm = a.Stmt() }); n != 0 {
		t.Fatalf("warm Site.Stmt allocates %.2f times per call, want 0", n)
	}
	if warm != StmtFor(a.Name) {
		t.Fatalf("warm Stmt = %d, want %d", warm, StmtFor(a.Name))
	}
}

func TestStmtPairNormalization(t *testing.T) {
	a, b := StmtFor("pair:a"), StmtFor("pair:b")
	p1 := MakeStmtPair(a, b)
	p2 := MakeStmtPair(b, a)
	if p1 != p2 {
		t.Fatal("pair not normalized")
	}
	if !p1.Contains(a) || !p1.Contains(b) {
		t.Fatal("Contains wrong")
	}
	if p1.Contains(StmtFor("pair:c")) {
		t.Fatal("spurious Contains")
	}
	if p1.Other(a) != b || p1.Other(b) != a {
		t.Fatal("Other wrong")
	}
	if p1.Other(StmtFor("pair:d")) != NoStmt {
		t.Fatal("Other on non-member must be NoStmt")
	}
	self := MakeStmtPair(a, a)
	if !self.Contains(a) || self.Other(a) != a {
		t.Fatal("self-pair semantics wrong")
	}
	if NoStmt != StmtFor("") {
		t.Fatal("empty name must intern to NoStmt")
	}
	if p1.Contains(NoStmt) {
		t.Fatal("pair contains NoStmt")
	}
}

func TestQuickPairSymmetry(t *testing.T) {
	f := func(x, y uint16) bool {
		a := StmtFor("q:" + string(rune('a'+x%26)) + itoa(int(x)))
		b := StmtFor("q:" + string(rune('a'+y%26)) + itoa(int(y)))
		p, q := MakeStmtPair(a, b), MakeStmtPair(b, a)
		return p == q && p.A <= p.B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	s := ""
	for i > 0 {
		s = string(digits[i%10]) + s
		i /= 10
	}
	return s
}

func TestSortStmtPairsDeterministic(t *testing.T) {
	a, b, c := StmtFor("sort:a"), StmtFor("sort:b"), StmtFor("sort:c")
	ps := []StmtPair{MakeStmtPair(c, b), MakeStmtPair(a, c), MakeStmtPair(a, b)}
	SortStmtPairs(ps)
	if ps[0] != MakeStmtPair(a, b) || ps[1] != MakeStmtPair(a, c) || ps[2] != MakeStmtPair(b, c) {
		t.Fatalf("sorted = %v", ps)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindMem, Thread: 1, Stmt: StmtFor("s:x"), Loc: 3, Access: Write, Locks: []LockID{0}}, "MEM"},
		{Event{Kind: KindSnd, Thread: 2, Msg: 7}, "SND(g7"},
		{Event{Kind: KindRcv, Thread: 2, Msg: 7}, "RCV(g7"},
		{Event{Kind: KindLock, Thread: 0, Lock: 4}, "LOCK(L4"},
		{Event{Kind: KindUnlock, Thread: 0, Lock: 4}, "UNLOCK(L4"},
	}
	for _, c := range cases {
		if got := c.e.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want contains %q", got, c.want)
		}
	}
}

func TestIDStrings(t *testing.T) {
	if ThreadID(3).String() != "T3" || NoThread.String() != "T?" {
		t.Fatal("ThreadID strings")
	}
	if LockID(2).String() != "L2" || MemLoc(5).String() != "m5" {
		t.Fatal("Lock/MemLoc strings")
	}
	if Read.String() != "READ" || Write.String() != "WRITE" {
		t.Fatal("AccessKind strings")
	}
	for _, k := range []Kind{KindMem, KindSnd, KindRcv, KindLock, KindUnlock} {
		if k.String() == "" {
			t.Fatal("Kind string empty")
		}
	}
}
