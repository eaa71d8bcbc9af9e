package sched

import "racefuzzer/internal/event"

// Observer receives the execution's event stream: MEM accesses with their
// held-lock snapshots, SND/RCV messages for fork/join/notify edges, and
// LOCK/UNLOCK for detectors that model release→acquire edges. An observer
// that also has an OnDecision(DecisionRecord) method receives every
// scheduling decision, and one with an OnAction(ActionRecord) method every
// policy action, interleaved with the events in causal order — how the
// flight recorder (internal/flightrec) captures a whole execution. Run sorts
// Config.Observers by these methods once per execution. Observers run
// synchronously under the scheduler lock, one call at a time; they must not
// block or perturb anything.
type Observer interface {
	OnEvent(e event.Event)
}

// decisionObserver is an Observer that also receives scheduling decisions.
type decisionObserver interface {
	OnDecision(d DecisionRecord)
}

// actionObserver is an Observer that also receives policy actions.
type actionObserver interface {
	OnAction(a ActionRecord)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e event.Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e event.Event) { f(e) }

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
