// Package collections is a miniature reimplementation of the Java
// collections library — just enough of JDK 1.1's Vector and JDK 1.4.2's
// ArrayList, LinkedList, HashSet and TreeSet, their fail-fast iterators, and
// the Collections.synchronizedList/synchronizedSet decorators — to reproduce
// the concurrency bugs the paper reports in §5.3 for the same structural
// reason they exist in Java:
//
//   - every structure maintains a modCount; iterators snapshot it and throw
//     ConcurrentModificationException when it changes underneath them;
//   - bulk operations (containsAll, equals, addAll, removeAll) are inherited
//     from AbstractCollection-style helpers that iterate their *argument*
//     collection directly;
//   - the synchronized decorators lock only their own mutex, so a bulk
//     operation iterates the argument without the argument's lock — the
//     thread-unsafe iterator use the paper describes.
//
// All state lives in instrumented conc.Vars/Arrays, so the races are visible
// to the detectors and schedulable by RaceFuzzer. Elements are ints.
package collections

import (
	"errors"
	"fmt"

	"racefuzzer/internal/conc"
)

// Model exceptions, matching the Java exception classes the paper observes.
var (
	// ErrConcurrentModification is thrown by fail-fast iterators.
	ErrConcurrentModification = errors.New("ConcurrentModificationException")
	// ErrNoSuchElement is thrown by Next past the end.
	ErrNoSuchElement = errors.New("NoSuchElementException")
	// ErrIndexOutOfBounds is thrown by positional access outside [0, size).
	ErrIndexOutOfBounds = errors.New("IndexOutOfBoundsException")
	// ErrIllegalState is thrown by Iterator.Remove before Next.
	ErrIllegalState = errors.New("IllegalStateException")
	// ErrCapacityExceeded is a model artifact: backing arrays are fixed-size
	// (drivers never legitimately exceed them).
	ErrCapacityExceeded = errors.New("CapacityExceededException")
)

// Iterator is java.util.Iterator over int elements.
type Iterator interface {
	// HasNext reports whether Next would return an element.
	HasNext(t *conc.Thread) bool
	// Next returns the next element; it throws NoSuchElementException past
	// the end and ConcurrentModificationException if the backing structure
	// changed since the iterator was created (fail-fast).
	Next(t *conc.Thread) int
	// Remove removes the element last returned by Next; it throws
	// IllegalStateException if Next has not been called.
	Remove(t *conc.Thread)
}

// Collection is the java.util.Collection slice the bulk operations need.
type Collection interface {
	// Add inserts v; for sets it returns false if v was present.
	Add(t *conc.Thread, v int) bool
	// Contains reports membership.
	Contains(t *conc.Thread, v int) bool
	// Iterator returns a fail-fast iterator.
	Iterator(t *conc.Thread) Iterator
}

// List is a Collection in insertion order (java.util.List); Equals compares
// two of them pairwise.
type List interface {
	Collection
}

// Set adds removal by value, which the set drivers' mutator uses.
type Set interface {
	Collection
	// Remove deletes v, reporting whether it was present.
	Remove(t *conc.Thread, v int) bool
}

// The AbstractCollection / AbstractList default implementations. They
// iterate the argument (or receiver) with its fail-fast iterator and no
// additional locking — precisely the inherited code paths the paper blames
// for the ConcurrentModificationException / NoSuchElementException bugs in
// the synchronized wrappers ("the developers did not override the
// containsAll method to make it thread-safe", §5.3).

// AbstractContainsAll implements AbstractCollection.containsAll: iterate c,
// probing this.Contains for each element.
func AbstractContainsAll(t *conc.Thread, this Collection, c Collection) bool {
	it := c.Iterator(t)
	for it.HasNext(t) {
		if !this.Contains(t, it.Next(t)) {
			return false
		}
	}
	return true
}

// AbstractAddAll implements AbstractCollection.addAll: iterate c, adding
// each element to this.
func AbstractAddAll(t *conc.Thread, this Collection, c Collection) bool {
	changed := false
	it := c.Iterator(t)
	for it.HasNext(t) {
		if this.Add(t, it.Next(t)) {
			changed = true
		}
	}
	return changed
}

// AbstractRemoveAll implements AbstractCollection.removeAll: iterate this,
// removing (via the iterator) every element contained in c.
func AbstractRemoveAll(t *conc.Thread, this Collection, c Collection) bool {
	changed := false
	it := this.Iterator(t)
	for it.HasNext(t) {
		if c.Contains(t, it.Next(t)) {
			it.Remove(t)
			changed = true
		}
	}
	return changed
}

// AbstractListEquals implements AbstractList.equals: pairwise iteration of
// both lists.
func AbstractListEquals(t *conc.Thread, a List, b List) bool {
	ia, ib := a.Iterator(t), b.Iterator(t)
	for ia.HasNext(t) && ib.HasNext(t) {
		if ia.Next(t) != ib.Next(t) {
			return false
		}
	}
	return !ia.HasNext(t) && !ib.HasNext(t)
}

// throwCME throws ConcurrentModificationException with context.
func throwCME(t *conc.Thread, what string) {
	t.Throw(fmt.Errorf("%w: %s modified during iteration", ErrConcurrentModification, what))
}

// throwNSE throws NoSuchElementException with context.
func throwNSE(t *conc.Thread, what string) {
	t.Throw(fmt.Errorf("%w: %s iterator exhausted", ErrNoSuchElement, what))
}
