package collections

import (
	"fmt"

	"racefuzzer/internal/conc"
)

// StringBuffer models java.lang.StringBuffer: every method is synchronized
// on the buffer's own monitor — and yet the classic cross-object bug is
// here, faithfully: Append(other) locks THIS buffer and then reads the
// OTHER buffer's length and characters without holding the other's monitor
// (in real Java, sb.append(other) calls other.length() and other.getChars()
// — individually synchronized, but the composite read is not atomic). A
// concurrent mutation of the argument between the length read and the
// character copy makes Append read a torn snapshot, or throw
// IndexOutOfBounds when the argument shrank — the StringBuffer analogue of
// §5.3's containsAll bug.
type StringBuffer struct {
	name string
	mon  *conc.Mutex
	data *conc.Array[int] // character cells
	len  *conc.IntVar
}

// NewStringBuffer allocates an empty buffer.
func NewStringBuffer(t *conc.Thread, name string) *StringBuffer {
	return &StringBuffer{
		name: name,
		mon:  conc.NewMutex(t, name+".monitor"),
		data: conc.NewArray[int](t, name+".value", defaultCap),
		len:  conc.NewIntVar(t, name+".count", 0),
	}
}

// Length returns the character count (synchronized).
func (s *StringBuffer) Length(t *conc.Thread) int {
	s.mon.LockAt(t, siteStringbuffer38.Stmt())
	n := s.len.GetAt(t, siteStringbuffer39.Stmt())
	s.mon.UnlockAt(t, siteStringbuffer40.Stmt())
	return n
}

// AppendChar appends one character (synchronized).
func (s *StringBuffer) AppendChar(t *conc.Thread, ch int) {
	s.mon.LockAt(t, siteStringbuffer46.Stmt())
	n := s.len.GetAt(t, siteStringbuffer47.Stmt())
	if n >= s.data.Len() {
		s.mon.UnlockAt(t, siteStringbuffer49.Stmt())
		t.Throw(fmt.Errorf("%w: %s", ErrCapacityExceeded, s.name))
	}
	s.data.SetAt(t, siteStringbuffer52.Stmt(), n, ch)
	s.len.SetAt(t, siteStringbuffer53.Stmt(), n+1)
	s.mon.UnlockAt(t, siteStringbuffer54.Stmt())
}

// SetLength truncates or zero-extends the buffer (synchronized).
func (s *StringBuffer) SetLength(t *conc.Thread, n int) {
	s.mon.LockAt(t, siteStringbuffer59.Stmt())
	if n < 0 || n > s.data.Len() {
		s.mon.UnlockAt(t, siteStringbuffer61.Stmt())
		t.Throw(fmt.Errorf("%w: setLength(%d)", ErrIndexOutOfBounds, n))
	}
	cur := s.len.GetAt(t, siteStringbuffer64.Stmt())
	for i := cur; i < n; i++ {
		s.data.SetAt(t, siteStringbuffer66.Stmt(), i, 0)
	}
	s.len.SetAt(t, siteStringbuffer68.Stmt(), n)
	s.mon.UnlockAt(t, siteStringbuffer69.Stmt())
}

// CharAt returns the character at index i (synchronized).
func (s *StringBuffer) CharAt(t *conc.Thread, i int) int {
	s.mon.LockAt(t, siteStringbuffer74.Stmt())
	n := s.len.GetAt(t, siteStringbuffer75.Stmt())
	if i < 0 || i >= n {
		s.mon.UnlockAt(t, siteStringbuffer77.Stmt())
		t.Throw(fmt.Errorf("%w: charAt(%d), length %d", ErrIndexOutOfBounds, i, n))
	}
	ch := s.data.GetAt(t, siteStringbuffer80.Stmt(), i)
	s.mon.UnlockAt(t, siteStringbuffer81.Stmt())
	return ch
}

// Append appends the contents of other. JDK-faithful bug: the receiver's
// monitor is held, but the argument's length and characters are read with
// NO lock on the argument — the composite is not atomic, so a concurrent
// SetLength/AppendChar on other can make the copy read stale cells or
// throw IndexOutOfBounds.
func (s *StringBuffer) Append(t *conc.Thread, other *StringBuffer) {
	s.mon.LockAt(t, siteStringbuffer91.Stmt())
	n := other.len.GetAt(t, siteStringbuffer92.Stmt()) // ← unsynchronized read of the argument's count
	dst := s.len.GetAt(t, siteStringbuffer93.Stmt())
	if dst+n > s.data.Len() {
		s.mon.UnlockAt(t, siteStringbuffer95.Stmt())
		t.Throw(fmt.Errorf("%w: %s", ErrCapacityExceeded, s.name))
	}
	for i := 0; i < n; i++ {
		// ← unsynchronized reads of the argument's characters; the argument
		// may have been truncated since the length read.
		cur := other.len.GetAt(t, siteStringbuffer101.Stmt())
		if i >= cur {
			s.mon.UnlockAt(t, siteStringbuffer103.Stmt())
			t.Throw(fmt.Errorf("%w: append saw %s shrink from %d to %d",
				ErrIndexOutOfBounds, other.name, n, cur))
		}
		s.data.SetAt(t, siteStringbuffer107.Stmt(), dst+i, other.data.GetAt(t, siteStringbuffer107.Stmt(), i))
	}
	s.len.SetAt(t, siteStringbuffer109.Stmt(), dst+n)
	s.mon.UnlockAt(t, siteStringbuffer110.Stmt())
}

// String snapshots the contents (synchronized; characters rendered as
// letters for readable assertions).
func (s *StringBuffer) String(t *conc.Thread) string {
	s.mon.LockAt(t, siteStringbuffer116.Stmt())
	n := s.len.GetAt(t, siteStringbuffer117.Stmt())
	buf := make([]byte, n)
	for i := 0; i < n; i++ {
		buf[i] = byte('a' + s.data.GetAt(t, siteStringbuffer120.Stmt(), i)%26)
	}
	s.mon.UnlockAt(t, siteStringbuffer122.Stmt())
	return string(buf)
}
