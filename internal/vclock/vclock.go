// Package vclock implements vector clocks, the mechanism the hybrid race
// detection algorithm (§2.2) uses to compute the happens-before relation ≼
// over MEM/SND/RCV events. A clock maps thread IDs to logical times; the
// usual component-wise partial order realizes happens-before:
//
//   - events of one thread are ordered by program order (the thread ticks
//     its own component after each event),
//   - SND(g,t1) ≼ RCV(g,t2) is realized by shipping the sender's clock with
//     the message and joining it into the receiver's clock,
//   - transitivity is inherited from the component-wise order.
//
// The detectors compare an earlier event to a later point by epoch, as
// FastTrack does: an event thread t performed when its own component was k
// happens-before a later point with clock C iff k ≤ C.Get(t).
package vclock

import "racefuzzer/internal/event"

// VC is a vector clock. It is represented densely: index i holds thread i's
// component. Thread IDs are small consecutive integers assigned by the
// scheduler, so dense representation is both compact and fast. The zero
// value is the all-zeros clock.
type VC struct {
	c []int32
}

// New returns an all-zeros clock.
func New() *VC { return &VC{} }

// Get returns t's component.
func (v *VC) Get(t event.ThreadID) int32 {
	if int(t) < 0 || int(t) >= len(v.c) {
		return 0
	}
	return v.c[t]
}

// Tick increments t's component and returns the new value. A thread ticks
// its own clock after each event it performs.
func (v *VC) Tick(t event.ThreadID) int32 {
	v.grow(int(t) + 1)
	v.c[t]++
	return v.c[t]
}

func (v *VC) grow(n int) {
	if n <= len(v.c) {
		return
	}
	nc := make([]int32, n)
	copy(nc, v.c)
	v.c = nc
}

// Join sets v to the component-wise maximum of v and o. This is the receive
// action: RCV(g, t) joins the clock that accompanied SND(g, ·).
func (v *VC) Join(o *VC) {
	v.grow(len(o.c))
	for i, x := range o.c {
		if x > v.c[i] {
			v.c[i] = x
		}
	}
}

// Copy returns an independent copy of v. The detectors ship a copy of the
// sender's clock with each SND (and, in internal/hb, each lock release).
func (v *VC) Copy() *VC {
	nc := make([]int32, len(v.c))
	copy(nc, v.c)
	return &VC{c: nc}
}
