package collections

import (
	"fmt"

	"racefuzzer/internal/conc"
)

// defaultCap is the fixed backing-array capacity of the array-based models.
const defaultCap = 96

// ArrayList models java.util.ArrayList (JDK 1.4.2): an unsynchronized,
// array-backed list with a fail-fast iterator driven by modCount.
type ArrayList struct {
	name     string
	data     *conc.Array[int]
	size     *conc.IntVar
	modCount *conc.IntVar
}

// NewArrayList allocates an empty ArrayList.
func NewArrayList(t *conc.Thread, name string) *ArrayList {
	return &ArrayList{
		name:     name,
		data:     conc.NewArray[int](t, name+".elementData", defaultCap),
		size:     conc.NewIntVar(t, name+".size", 0),
		modCount: conc.NewIntVar(t, name+".modCount", 0),
	}
}

// Add appends v (always returns true, like java.util.List).
func (l *ArrayList) Add(t *conc.Thread, v int) bool {
	l.modCount.AddAt(t, siteArraylist33.Stmt(), 1) // ensureCapacity bumps modCount first in the JDK
	n := l.size.GetAt(t, siteArraylist34.Stmt())
	if n >= l.data.Len() {
		t.Throw(fmt.Errorf("%w: %s", ErrCapacityExceeded, l.name))
	}
	l.data.SetAt(t, siteArraylist38.Stmt(), n, v)
	l.size.SetAt(t, siteArraylist39.Stmt(), n+1)
	return true
}

// indexOf scans for v, returning -1 when absent.
func (l *ArrayList) indexOf(t *conc.Thread, v int) int {
	n := l.size.GetAt(t, siteArraylist54.Stmt())
	for i := 0; i < n; i++ {
		if l.data.GetAt(t, siteArraylist56.Stmt(), i) == v {
			return i
		}
	}
	return -1
}

// Contains reports membership.
func (l *ArrayList) Contains(t *conc.Thread, v int) bool { return l.indexOf(t, v) >= 0 }

// RemoveAt deletes the element at index i, shifting the tail left.
func (l *ArrayList) RemoveAt(t *conc.Thread, i int) int {
	n := l.size.GetAt(t, siteArraylist68.Stmt())
	if i < 0 || i >= n {
		t.Throw(fmt.Errorf("%w: index %d, size %d", ErrIndexOutOfBounds, i, n))
	}
	l.modCount.AddAt(t, siteArraylist72.Stmt(), 1)
	old := l.data.GetAt(t, siteArraylist73.Stmt(), i)
	for j := i; j < n-1; j++ {
		l.data.SetAt(t, siteArraylist75.Stmt(), j, l.data.GetAt(t, siteArraylist75.Stmt(), j+1))
	}
	l.size.SetAt(t, siteArraylist77.Stmt(), n-1)
	return old
}

// Iterator returns a fail-fast iterator (java.util.AbstractList.Itr).
func (l *ArrayList) Iterator(t *conc.Thread) Iterator {
	return &arrayListIter{list: l, expected: l.modCount.GetAt(t, siteArraylist102.Stmt()), lastRet: -1}
}

// arrayListIter is the fail-fast iterator.
type arrayListIter struct {
	list     *ArrayList
	cursor   int
	lastRet  int
	expected int
}

func (it *arrayListIter) checkComod(t *conc.Thread) {
	if it.list.modCount.GetAt(t, siteArraylist131.Stmt()) != it.expected {
		throwCME(t, it.list.name)
	}
}

// HasNext implements Iterator.
func (it *arrayListIter) HasNext(t *conc.Thread) bool {
	return it.cursor < it.list.size.GetAt(t, siteArraylist138.Stmt())
}

// Next implements Iterator.
func (it *arrayListIter) Next(t *conc.Thread) int {
	it.checkComod(t)
	n := it.list.size.GetAt(t, siteArraylist144.Stmt())
	if it.cursor >= n {
		throwNSE(t, it.list.name)
	}
	v := it.list.data.GetAt(t, siteArraylist148.Stmt(), it.cursor)
	it.lastRet = it.cursor
	it.cursor++
	return v
}

// Remove implements Iterator.
func (it *arrayListIter) Remove(t *conc.Thread) {
	if it.lastRet < 0 {
		t.Throw(ErrIllegalState)
	}
	it.checkComod(t)
	it.list.RemoveAt(t, it.lastRet)
	it.cursor = it.lastRet
	it.lastRet = -1
	it.expected = it.list.modCount.GetAt(t, siteArraylist163.Stmt())
}
