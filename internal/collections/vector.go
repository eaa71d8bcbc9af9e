package collections

import (
	"fmt"

	"racefuzzer/internal/conc"
)

// Vector models java.util.Vector as of JDK 1.1: every public method is
// synchronized on the vector's own monitor, but the Enumeration returned by
// Elements reads elementCount and elementData with no synchronization at
// all — the JDK 1.1 idiom the paper's vector benchmark exercises, giving
// real races that are benign (the enumeration bounds every index by the
// count it just observed, so no exception is ever thrown; it may simply
// observe a stale snapshot). Like JDK 1.1's, it is not a Collection: the
// collections framework came later, and an Enumeration has no remove.
type Vector struct {
	name         string
	mon          *conc.Mutex
	elementData  *conc.Array[int]
	elementCount *conc.IntVar
}

// NewVector allocates an empty Vector.
func NewVector(t *conc.Thread, name string) *Vector {
	return &Vector{
		name:         name,
		mon:          conc.NewMutex(t, name+".monitor"),
		elementData:  conc.NewArray[int](t, name+".elementData", defaultCap),
		elementCount: conc.NewIntVar(t, name+".elementCount", 0),
	}
}

// AddElement appends v (synchronized).
func (v *Vector) AddElement(t *conc.Thread, e int) {
	v.mon.LockAt(t, siteVector35.Stmt())
	n := v.elementCount.GetAt(t, siteVector36.Stmt())
	if n >= v.elementData.Len() {
		v.mon.UnlockAt(t, siteVector38.Stmt())
		t.Throw(fmt.Errorf("%w: %s", ErrCapacityExceeded, v.name))
	}
	v.elementData.SetAt(t, siteVector41.Stmt(), n, e)
	v.elementCount.SetAt(t, siteVector42.Stmt(), n+1)
	v.mon.UnlockAt(t, siteVector43.Stmt())
}

// RemoveElement deletes one occurrence of e (synchronized).
func (v *Vector) RemoveElement(t *conc.Thread, e int) bool {
	v.mon.LockAt(t, siteVector54.Stmt())
	n := v.elementCount.GetAt(t, siteVector55.Stmt())
	for i := 0; i < n; i++ {
		if v.elementData.GetAt(t, siteVector57.Stmt(), i) == e {
			for j := i; j < n-1; j++ {
				v.elementData.SetAt(t, siteVector59.Stmt(), j, v.elementData.GetAt(t, siteVector59.Stmt(), j+1))
			}
			v.elementCount.SetAt(t, siteVector61.Stmt(), n-1)
			v.mon.UnlockAt(t, siteVector62.Stmt())
			return true
		}
	}
	v.mon.UnlockAt(t, siteVector66.Stmt())
	return false
}

// Contains reports membership (synchronized).
func (v *Vector) Contains(t *conc.Thread, e int) bool {
	v.mon.LockAt(t, siteVector75.Stmt())
	n := v.elementCount.GetAt(t, siteVector76.Stmt())
	found := false
	for i := 0; i < n && !found; i++ {
		if v.elementData.GetAt(t, siteVector79.Stmt(), i) == e {
			found = true
		}
	}
	v.mon.UnlockAt(t, siteVector83.Stmt())
	return found
}

// ElementAt returns the element at index i (synchronized).
func (v *Vector) ElementAt(t *conc.Thread, i int) int {
	v.mon.LockAt(t, siteVector89.Stmt())
	n := v.elementCount.GetAt(t, siteVector90.Stmt())
	if i < 0 || i >= n {
		v.mon.UnlockAt(t, siteVector92.Stmt())
		t.Throw(fmt.Errorf("%w: index %d, count %d", ErrIndexOutOfBounds, i, n))
	}
	e := v.elementData.GetAt(t, siteVector95.Stmt(), i)
	v.mon.UnlockAt(t, siteVector96.Stmt())
	return e
}

// Size returns the element count (synchronized).
func (v *Vector) Size(t *conc.Thread) int {
	v.mon.LockAt(t, siteVector102.Stmt())
	n := v.elementCount.GetAt(t, siteVector103.Stmt())
	v.mon.UnlockAt(t, siteVector104.Stmt())
	return n
}

// Elements returns a JDK 1.1-style Enumeration: it reads elementCount and
// elementData WITHOUT the vector's monitor. Every such read races with the
// synchronized mutators (real races), but each index is bounded by the count
// observed in the same call, so the enumeration never throws — the benign
// real races of the paper's vector row.
func (v *Vector) Elements(t *conc.Thread) *VectorEnumeration {
	return &VectorEnumeration{vec: v}
}

// VectorEnumeration is the unsynchronized enumeration.
type VectorEnumeration struct {
	vec    *Vector
	cursor int
}

// HasNext (hasMoreElements) reads elementCount unsynchronized.
func (e *VectorEnumeration) HasNext(t *conc.Thread) bool {
	return e.cursor < e.vec.elementCount.GetAt(t, siteVector136.Stmt())
}

// Next (nextElement) reads elementCount and elementData unsynchronized.
func (e *VectorEnumeration) Next(t *conc.Thread) int {
	n := e.vec.elementCount.GetAt(t, siteVector141.Stmt())
	if e.cursor >= n {
		throwNSE(t, e.vec.name)
	}
	v := e.vec.elementData.GetAt(t, siteVector145.Stmt(), e.cursor)
	e.cursor++
	return v
}
