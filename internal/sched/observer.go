package sched

import "racefuzzer/internal/event"

// Observer receives the execution's event stream: MEM accesses with their
// held-lock snapshots, SND/RCV messages for fork/join/notify edges, and
// LOCK/UNLOCK for detectors that model release→acquire edges. Observers run
// synchronously under the scheduler lock, one call at a time; they must not
// block.
type Observer interface {
	OnEvent(e event.Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e event.Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e event.Event) { f(e) }

// MultiObserver fans one event stream out to several observers.
type MultiObserver []Observer

// OnEvent implements Observer.
func (m MultiObserver) OnEvent(e event.Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

// CountingObserver tallies events by kind; used in tests and overhead
// benchmarks.
type CountingObserver struct {
	Mem, Snd, Rcv, Lock, Unlock int
}

// OnEvent implements Observer.
func (c *CountingObserver) OnEvent(e event.Event) {
	switch e.Kind {
	case event.KindMem:
		c.Mem++
	case event.KindSnd:
		c.Snd++
	case event.KindRcv:
		c.Rcv++
	case event.KindLock:
		c.Lock++
	case event.KindUnlock:
		c.Unlock++
	}
}

// Total returns the total number of observed events.
func (c *CountingObserver) Total() int { return c.Mem + c.Snd + c.Rcv + c.Lock + c.Unlock }
