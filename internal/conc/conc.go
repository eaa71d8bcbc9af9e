// Package conc is the model-program API: the vocabulary benchmark programs
// are written in. It plays the role the instrumented Java bytecode plays in
// the paper — every shared-variable access and synchronization operation is
// routed through the deterministic scheduler (internal/sched) and labeled
// with a statement identity, so phase 1 can report potentially racing
// statement pairs and phase 2 can target them.
//
// The primitives mirror Java's concurrency vocabulary: shared variables
// (fields), arrays, reentrant monitor locks with wait/notify, fork/join,
// plus the barrier idiom the Java Grande benchmarks use.
package conc

import (
	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

// Thread aliases sched.Thread: model code receives its current thread
// explicitly (Java's implicit "current thread" made visible).
type Thread = sched.Thread

// Var is an instrumented shared variable holding a value of type T. Every
// Get/Set parks at the scheduler and emits a MEM event, so two Vars accesses
// from different threads can be detected — and, by RaceFuzzer, actively
// scheduled — to race.
type Var[T any] struct {
	loc event.MemLoc
	val T
}

// NewVar allocates a shared variable with a debug name and initial value.
func NewVar[T any](t *Thread, name string, init T) *Var[T] {
	return &Var[T]{loc: t.Scheduler().NewLoc(name), val: init}
}

// NewIndexedVar is NewVar for a variable named base, then i in decimal,
// then suffix (a node's field, such as "list.node" 3 ".next"). The name is
// built only if something reads it.
func NewIndexedVar[T any](t *Thread, base string, i int, suffix string, init T) *Var[T] {
	return &Var[T]{loc: t.Scheduler().NewLocIndexed(base, i, suffix), val: init}
}

// Get reads the variable; the statement label is the caller's file:line.
func (v *Var[T]) Get(t *Thread) T { return v.GetAt(t, event.CallerStmt(1)) }

// GetAt reads the variable at an explicit statement label.
func (v *Var[T]) GetAt(t *Thread, stmt event.Stmt) T {
	t.MemRead(v.loc, stmt)
	return v.val
}

// Set writes the variable; the statement label is the caller's file:line.
func (v *Var[T]) Set(t *Thread, val T) { v.SetAt(t, event.CallerStmt(1), val) }

// SetAt writes the variable at an explicit statement label.
func (v *Var[T]) SetAt(t *Thread, stmt event.Stmt, val T) {
	t.MemWrite(v.loc, stmt)
	v.val = val
}

// Peek returns the current value without an instrumented access. For
// assertions in test harnesses only — never in model-program logic.
func (v *Var[T]) Peek() T { return v.val }

// IntVar is a shared integer with read-modify-write helpers.
type IntVar struct{ Var[int] }

// NewIntVar allocates a shared integer.
func NewIntVar(t *Thread, name string, init int) *IntVar {
	return &IntVar{Var[int]{loc: t.Scheduler().NewLoc(name), val: init}}
}

// Add performs v += d as Java compiles it: a read event followed by a write
// event at the same statement — the classic lost-update racing pattern.
func (v *IntVar) Add(t *Thread, d int) int { return v.AddAt(t, event.CallerStmt(1), d) }

// AddAt is Add with an explicit statement label.
func (v *IntVar) AddAt(t *Thread, stmt event.Stmt, d int) int {
	t.MemRead(v.loc, stmt)
	x := v.val
	t.MemWrite(v.loc, stmt)
	v.val = x + d
	return x + d
}

// Array is an instrumented shared array with one dynamic memory location per
// element, so accesses to distinct indices do not conflict (exactly the
// "different dynamic shared memory locations" situation Algorithm 1 keeps
// postponing on).
type Array[T any] struct {
	base event.MemLoc
	vals []T
}

// NewArray allocates an n-element shared array; element i's location is
// named name[i].
func NewArray[T any](t *Thread, name string, n int) *Array[T] {
	return &Array[T]{base: t.Scheduler().NewLocRange(name, n), vals: make([]T, n)}
}

// Len returns the array length.
func (a *Array[T]) Len() int { return len(a.vals) }

// LocOf returns element i's memory location.
func (a *Array[T]) LocOf(i int) event.MemLoc { return a.base + event.MemLoc(i) }

// Get reads element i.
func (a *Array[T]) Get(t *Thread, i int) T { return a.GetAt(t, event.CallerStmt(1), i) }

// GetAt reads element i at an explicit statement label.
func (a *Array[T]) GetAt(t *Thread, stmt event.Stmt, i int) T {
	a.check(t, i)
	t.MemRead(a.LocOf(i), stmt)
	return a.vals[i]
}

// Set writes element i.
func (a *Array[T]) Set(t *Thread, i int, val T) { a.SetAt(t, event.CallerStmt(1), i, val) }

// SetAt writes element i at an explicit statement label.
func (a *Array[T]) SetAt(t *Thread, stmt event.Stmt, i int, val T) {
	a.check(t, i)
	t.MemWrite(a.LocOf(i), stmt)
	a.vals[i] = val
}

// check throws ArrayIndexOutOfBoundsException for a bad index before the
// access reaches the scheduler: base+i would name a neighbouring
// variable's location, and phase 1 or the RaceFuzzer policy would see an
// access to it.
func (a *Array[T]) check(t *Thread, i int) {
	if uint(i) >= uint(len(a.vals)) {
		t.Throwf("ArrayIndexOutOfBoundsException: index %d, length %d", i, len(a.vals))
	}
}

// Peek returns element i without instrumentation (harness assertions only).
func (a *Array[T]) Peek(i int) T { return a.vals[i] }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
