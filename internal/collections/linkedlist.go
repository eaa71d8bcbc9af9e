package collections

import "racefuzzer/internal/conc"

// llNode is a doubly-linked node. The value is immutable after creation;
// next/prev are instrumented because pointer splices are where the races
// happen.
type llNode struct {
	val  int
	next *conc.Var[*llNode]
	prev *conc.Var[*llNode]
}

func newLLNode(t *conc.Thread, base string, seq, v int) *llNode {
	next := conc.NewIndexedVar[*llNode](t, base, seq, ".next", nil)
	prev := conc.NewIndexedVar[*llNode](t, base, seq, ".prev", nil)
	return &llNode{val: v, next: next, prev: prev}
}

// newLLHeader allocates the header sentinel, named name.header.next and
// name.header.prev.
func newLLHeader(t *conc.Thread, name string) *llNode {
	return &llNode{
		next: conc.NewVar[*llNode](t, name+".header.next", nil),
		prev: conc.NewVar[*llNode](t, name+".header.prev", nil),
	}
}

// LinkedList models java.util.LinkedList (JDK 1.4.2): a doubly-linked list
// with a header sentinel, size and modCount fields, and a fail-fast
// iterator.
type LinkedList struct {
	name     string
	header   *llNode
	size     *conc.IntVar
	modCount *conc.IntVar
	nodeBase string // name + ".node"; nodes are named on demand
	nodeSeq  int
}

// NewLinkedList allocates an empty LinkedList.
func NewLinkedList(t *conc.Thread, name string) *LinkedList {
	l := &LinkedList{
		name:     name,
		header:   newLLHeader(t, name),
		size:     conc.NewIntVar(t, name+".size", 0),
		modCount: conc.NewIntVar(t, name+".modCount", 0),
		nodeBase: name + ".node",
	}
	l.header.next.SetAt(t, siteLinkedlist45.Stmt(), l.header)
	l.header.prev.SetAt(t, siteLinkedlist46.Stmt(), l.header)
	return l
}

func (l *LinkedList) newNode(t *conc.Thread, v int) *llNode {
	l.nodeSeq++
	return newLLNode(t, l.nodeBase, l.nodeSeq, v)
}

// Add appends v before the header (at the tail).
func (l *LinkedList) Add(t *conc.Thread, v int) bool {
	n := l.newNode(t, v)
	tail := l.header.prev.GetAt(t, siteLinkedlist58.Stmt())
	n.prev.SetAt(t, siteLinkedlist59.Stmt(), tail)
	n.next.SetAt(t, siteLinkedlist60.Stmt(), l.header)
	tail.next.SetAt(t, siteLinkedlist61.Stmt(), n)
	l.header.prev.SetAt(t, siteLinkedlist62.Stmt(), n)
	l.size.AddAt(t, siteLinkedlist63.Stmt(), 1)
	l.modCount.AddAt(t, siteLinkedlist64.Stmt(), 1)
	return true
}

// Contains walks the list looking for v.
func (l *LinkedList) Contains(t *conc.Thread, v int) bool {
	for e := l.header.next.GetAt(t, siteLinkedlist83.Stmt()); e != l.header; e = e.next.GetAt(t, siteLinkedlist83.Stmt()) {
		if e.val == v {
			return true
		}
	}
	return false
}

// unlink removes node e from the chain.
func (l *LinkedList) unlink(t *conc.Thread, e *llNode) {
	p := e.prev.GetAt(t, siteLinkedlist93.Stmt())
	n := e.next.GetAt(t, siteLinkedlist94.Stmt())
	p.next.SetAt(t, siteLinkedlist95.Stmt(), n)
	n.prev.SetAt(t, siteLinkedlist96.Stmt(), p)
	l.size.AddAt(t, siteLinkedlist97.Stmt(), -1)
	l.modCount.AddAt(t, siteLinkedlist98.Stmt(), 1)
}

// Iterator returns a fail-fast iterator (java.util.LinkedList.ListItr).
func (l *LinkedList) Iterator(t *conc.Thread) Iterator {
	return &linkedListIter{
		list: l, next: l.header.next.GetAt(t, siteLinkedlist126.Stmt()), expected: l.modCount.GetAt(t, siteLinkedlist126.Stmt()),
	}
}

// linkedListIter is the fail-fast iterator.
type linkedListIter struct {
	list     *LinkedList
	next     *llNode
	lastRet  *llNode
	expected int
}

func (it *linkedListIter) checkComod(t *conc.Thread) {
	if it.list.modCount.GetAt(t, siteLinkedlist153.Stmt()) != it.expected {
		throwCME(t, it.list.name)
	}
}

// HasNext implements Iterator.
func (it *linkedListIter) HasNext(t *conc.Thread) bool {
	return it.next != it.list.header
}

// Next implements Iterator.
func (it *linkedListIter) Next(t *conc.Thread) int {
	it.checkComod(t)
	if it.next == it.list.header {
		throwNSE(t, it.list.name)
	}
	it.lastRet = it.next
	it.next = it.next.next.GetAt(t, siteLinkedlist170.Stmt())
	return it.lastRet.val
}

// Remove implements Iterator.
func (it *linkedListIter) Remove(t *conc.Thread) {
	if it.lastRet == nil {
		t.Throw(ErrIllegalState)
	}
	it.checkComod(t)
	it.list.unlink(t, it.lastRet)
	it.lastRet = nil
	it.expected = it.list.modCount.GetAt(t, siteLinkedlist182.Stmt())
}
