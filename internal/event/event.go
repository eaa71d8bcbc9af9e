// Package event defines the core vocabulary shared by the scheduler, the
// race detectors and the RaceFuzzer algorithm: thread/lock/memory-location
// identities, statement labels, and the MEM/SND/RCV event model of §2.1 of
// the paper.
//
// All identities are small integers assigned by deterministic counters, so a
// given (program, seed) pair always produces the same identities. Statement
// labels are interned strings naming a model call site by its file:line,
// mirroring the paper's use of program statements as the unit that phase 1
// reports and phase 2 targets. Model packages carry those names as
// generated Sites, like the paper's statement IDs fixed at instrumentation
// time; CallerStmt derives them from the stack for everything else.
package event

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ThreadID identifies a model thread within one execution. The main thread
// is always ThreadID 0 and children are numbered in fork order, which is
// deterministic because execution is serialized.
type ThreadID int

// NoThread is the zero-value "no such thread" sentinel.
const NoThread ThreadID = -1

func (t ThreadID) String() string {
	if t == NoThread {
		return "T?"
	}
	return fmt.Sprintf("T%d", int(t))
}

// LockID identifies a model lock (Java monitor) within one execution.
type LockID int

// NoLock is the "no lock" sentinel.
const NoLock LockID = -1

func (l LockID) String() string { return fmt.Sprintf("L%d", int(l)) }

// MemLoc identifies one dynamic shared memory location (a Var, or one slot
// of an Array). Two accesses race only if they touch the same MemLoc.
type MemLoc int

// NoLoc is the "no location" sentinel used by non-memory operations.
const NoLoc MemLoc = -1

func (m MemLoc) String() string { return fmt.Sprintf("m%d", int(m)) }

// MsgID identifies one SND/RCV message (fork, join, notify edges).
type MsgID int

// AccessKind distinguishes reads from writes in MEM events.
type AccessKind int

const (
	// Read is a shared-memory read access.
	Read AccessKind = iota
	// Write is a shared-memory write access.
	Write
)

func (a AccessKind) String() string {
	if a == Write {
		return "WRITE"
	}
	return "READ"
}

// Stmt is an interned statement label. Statements are the static program
// points the paper's phase 1 reports as potentially racing pairs and that
// RaceFuzzer's RaceSet is made of. The zero value NoStmt means "unlabeled".
type Stmt int

// NoStmt is the unlabeled statement.
const NoStmt Stmt = 0

var stmtTab = struct {
	sync.RWMutex
	byName map[string]Stmt
	names  []string
}{
	byName: map[string]Stmt{"": NoStmt},
	names:  []string{""},
}

// StmtFor interns name and returns its statement label. Interning is global
// and append-only so labels are stable across executions in one process.
// Lookups of known names share a read lock, so executors labelling in
// parallel do not serialize on it.
func StmtFor(name string) Stmt {
	stmtTab.RLock()
	s, ok := stmtTab.byName[name]
	stmtTab.RUnlock()
	if ok {
		return s
	}
	stmtTab.Lock()
	defer stmtTab.Unlock()
	if s, ok := stmtTab.byName[name]; ok {
		return s // interned by another goroutine since the read
	}
	s = Stmt(len(stmtTab.names))
	stmtTab.byName[name] = s
	stmtTab.names = append(stmtTab.names, name)
	return s
}

// Name returns the interned name of s ("" for NoStmt).
func (s Stmt) Name() string {
	stmtTab.RLock()
	defer stmtTab.RUnlock()
	if int(s) < 0 || int(s) >= len(stmtTab.names) {
		return fmt.Sprintf("stmt#%d", int(s))
	}
	return stmtTab.names[s]
}

func (s Stmt) String() string {
	n := s.Name()
	if n == "" {
		return "<unlabeled>"
	}
	return n
}

// Site is a static statement label: a call site whose name is fixed before
// the program runs, the analogue of the paper's bytecode statement IDs.
// Stmt interns Name on first use and caches the ID, so IDs keep the
// first-execution numbering CallerStmt gives, and every later use is one
// atomic load. A Site must not be copied after first use.
type Site struct {
	Name string
	id   atomic.Int32
}

// Stmt returns the site's statement label, interning Name on first use.
func (s *Site) Stmt() Stmt {
	if id := s.id.Load(); id != 0 {
		return Stmt(id)
	}
	return s.intern()
}

// intern is Stmt's first-use path, kept out of line so Stmt inlines.
// Racing first uses all intern the same name, so they store the same ID.
func (s *Site) intern() Stmt {
	id := StmtFor(s.Name)
	s.id.Store(int32(id))
	return id
}

// CallerStmt returns a statement label derived from the caller's source
// position, skip frames above the caller of CallerStmt itself: the last two
// path segments of the file, a colon and the line. It is the dynamic
// analogue of the paper's bytecode-level statement identity: two textual
// occurrences of an access in the model program get distinct labels. The
// model packages label their call sites with generated Sites of the same
// names instead (internal/conc/stmtgen_test.go); CallerStmt remains for
// tests, examples and code outside them, at the price of a stack walk.
func CallerStmt(skip int) Stmt {
	// A program counter identifies one call site, which always resolves to
	// the same file:line — so the formatted, interned label can be cached by
	// pc. The cache (and using Callers rather than the allocating
	// runtime.Caller) makes repeat visits allocation-free. pcbuf must stay on
	// the stack: handing pcbuf[:] to CallersFrames would move it to the heap
	// on every call, so the miss path builds its own one-element slice.
	var pcbuf [1]uintptr
	if runtime.Callers(skip+2, pcbuf[:]) == 0 {
		return NoStmt
	}
	pc := pcbuf[0]
	callerStmtCache.RLock()
	s, hit := callerStmtCache.m[pc]
	callerStmtCache.RUnlock()
	if hit {
		return s
	}
	frames := runtime.CallersFrames([]uintptr{pc})
	frame, _ := frames.Next()
	file := frame.File
	// Keep the trailing two path segments: enough to be unique and stable,
	// short enough to read in reports.
	if i := strings.LastIndexByte(file, '/'); i >= 0 {
		if j := strings.LastIndexByte(file[:i], '/'); j >= 0 {
			file = file[j+1:]
		}
	}
	s = StmtFor(fmt.Sprintf("%s:%d", file, frame.Line))
	callerStmtCache.Lock()
	callerStmtCache.m[pc] = s
	callerStmtCache.Unlock()
	return s
}

// callerStmtCache memoizes CallerStmt by call-site program counter. Like the
// statement table it is global and append-only; a typed map is used (rather
// than sync.Map) so the hit path does not box the uintptr key.
var callerStmtCache = struct {
	sync.RWMutex
	m map[uintptr]Stmt
}{m: map[uintptr]Stmt{}}

// StmtPair is an unordered pair of statements — the unit phase 1 reports
// and phase 2 takes as its RaceSet. Construction normalizes the order so
// pairs compare and hash consistently.
type StmtPair struct {
	A, B Stmt
}

// MakeStmtPair returns the normalized (A ≤ B) pair of a and b.
func MakeStmtPair(a, b Stmt) StmtPair {
	if b < a {
		a, b = b, a
	}
	return StmtPair{A: a, B: b}
}

// Contains reports whether s is one of the pair's statements.
func (p StmtPair) Contains(s Stmt) bool { return s != NoStmt && (s == p.A || s == p.B) }

// Other returns the pair's other statement given one of them; it returns
// NoStmt when s is not in the pair. For a self-pair (A==B) it returns A.
func (p StmtPair) Other(s Stmt) Stmt {
	switch s {
	case p.A:
		return p.B
	case p.B:
		return p.A
	}
	return NoStmt
}

func (p StmtPair) String() string {
	return fmt.Sprintf("(%s, %s)", p.A, p.B)
}

// SortStmtPairs orders pairs deterministically (by interned label text,
// then numerically) for stable reports.
func SortStmtPairs(ps []StmtPair) { slices.SortFunc(ps, compareStmtPairs) }

func compareStmtPairs(x, y StmtPair) int {
	if c := strings.Compare(x.A.Name(), y.A.Name()); c != 0 {
		return c
	}
	if c := strings.Compare(x.B.Name(), y.B.Name()); c != 0 {
		return c
	}
	if c := cmp.Compare(x.A, y.A); c != 0 {
		return c
	}
	return cmp.Compare(x.B, y.B)
}

// Kind enumerates the event kinds of the paper's abstract model (§2.1).
type Kind int

const (
	// KindMem is a MEM(s, m, a, t, L) shared-memory access event.
	KindMem Kind = iota
	// KindSnd is a SND(g, t) message-send event (fork, exit-for-join,
	// delivered notify).
	KindSnd
	// KindRcv is a RCV(g, t) message-receive event (thread begin, join,
	// wakeup from wait).
	KindRcv
	// KindLock is a lock-acquire event (tracked for locksets; not part of
	// the happens-before relation in the hybrid algorithm).
	KindLock
	// KindUnlock is a lock-release event.
	KindUnlock

	// KindCount is the number of event kinds; telemetry indexes per-kind
	// counters with it.
	KindCount
)

func (k Kind) String() string {
	switch k {
	case KindMem:
		return "MEM"
	case KindSnd:
		return "SND"
	case KindRcv:
		return "RCV"
	case KindLock:
		return "LOCK"
	case KindUnlock:
		return "UNLOCK"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one observation delivered to detectors and trace recorders.
// Which fields are meaningful depends on Kind:
//
//   - KindMem:    Thread, Stmt, Loc, Access, Locks (locks held at the access)
//   - KindSnd:    Thread, Msg
//   - KindRcv:    Thread, Msg
//   - KindLock:   Thread, Stmt, Lock
//   - KindUnlock: Thread, Stmt, Lock
type Event struct {
	Kind   Kind
	Thread ThreadID
	Stmt   Stmt
	Loc    MemLoc
	Access AccessKind
	Lock   LockID
	Msg    MsgID
	Locks  []LockID // sorted snapshot of held locks (MEM events only)
	Step   int      // scheduler step index at which the event occurred
}

func (e Event) String() string {
	switch e.Kind {
	case KindMem:
		return fmt.Sprintf("MEM(%s, %s, %s, %s, %v)@%d", e.Stmt, e.Loc, e.Access, e.Thread, e.Locks, e.Step)
	case KindSnd:
		return fmt.Sprintf("SND(g%d, %s)@%d", int(e.Msg), e.Thread, e.Step)
	case KindRcv:
		return fmt.Sprintf("RCV(g%d, %s)@%d", int(e.Msg), e.Thread, e.Step)
	case KindLock:
		return fmt.Sprintf("LOCK(%s, %s)@%d", e.Lock, e.Thread, e.Step)
	case KindUnlock:
		return fmt.Sprintf("UNLOCK(%s, %s)@%d", e.Lock, e.Thread, e.Step)
	}
	return fmt.Sprintf("Event{kind=%d}", int(e.Kind))
}
