package obs

import "sync"

// StreamEvent is the unit the observatory fans out to live subscribers: a
// run record, a corpus finding verdict derived from it, or a lifecycle
// marker. Seq is the broadcaster's own monotonic emission index (independent
// of any JSONL sink's), stamped under the broadcast lock so every subscriber
// observes the same total order.
type StreamEvent struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"` // "run", "finding", "snapshot", "shutdown"
	// Run is the record itself (Type "run").
	Run *RunRecord `json:"run,omitempty"`
	// Finding describes a corpus verdict (Type "finding").
	Finding *FindingEvent `json:"finding,omitempty"`
	// Metrics carries a campaign snapshot (Type "snapshot" and "shutdown").
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// FindingEvent is the broadcast form of a corpus dedup verdict: a target's
// first confirming run was classified new or known.
type FindingEvent struct {
	Label   string `json:"label,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Pair    string `json:"pair,omitempty"`
	Verdict string `json:"verdict"` // "new" or "known"
	Seed    int64  `json:"seed"`
	Trial   int    `json:"trial"`
}

// Broadcast is a Sink that fans every record out to any number of
// subscribers with bounded per-client buffers. Publishing never blocks the
// campaign: a subscriber whose buffer is full is dropped on the spot (its
// channel is closed) and counted, the way a monitoring tap must behave —
// the observed process always wins over the observer.
//
// All methods are safe for concurrent use and on a nil receiver.
type Broadcast struct {
	mu     sync.Mutex
	seq    int64
	subs   map[*Subscriber]struct{}
	closed bool
}

// NewBroadcast returns an empty broadcaster.
func NewBroadcast() *Broadcast {
	return &Broadcast{subs: make(map[*Subscriber]struct{})}
}

// Emit implements Sink: the record is published as a "run" event, and when
// it carries a corpus finding verdict, a companion "finding" event follows
// in the same order for every subscriber.
func (b *Broadcast) Emit(rec RunRecord) {
	if b == nil {
		return
	}
	r := rec
	b.Publish(StreamEvent{Type: "run", Run: &r})
	if rec.Finding != "" {
		b.Publish(StreamEvent{Type: "finding", Finding: &FindingEvent{
			Label: rec.Label, Kind: rec.Kind, Pair: rec.Pair,
			Verdict: rec.Finding, Seed: rec.Seed, Trial: rec.Trial,
		}})
	}
}

// Publish stamps ev with the next sequence number and delivers it to every
// live subscriber without blocking. Returns the stamped sequence (-1 on a
// nil or closed broadcaster).
func (b *Broadcast) Publish(ev StreamEvent) int64 {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return -1
	}
	ev.Seq = b.seq
	b.seq++
	for s := range b.subs {
		select {
		case s.ch <- ev:
		default:
			// Slow client: evict rather than stall the campaign.
			delete(b.subs, s)
			close(s.ch)
			s.dropped = true
		}
	}
	return ev.Seq
}

// Subscribe registers a new subscriber with a buffer of buf events
// (minimum 1). The caller must drain Events() promptly or be dropped.
func (b *Broadcast) Subscribe(buf int) *Subscriber {
	if b == nil {
		return nil
	}
	if buf < 1 {
		buf = 1
	}
	s := &Subscriber{b: b, ch: make(chan StreamEvent, buf)}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs[s] = struct{}{}
	return s
}

// Close closes every subscriber channel and rejects further publishes.
func (b *Broadcast) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for s := range b.subs {
		delete(b.subs, s)
		close(s.ch)
	}
}

// Subscriber is one live tap on a Broadcast.
type Subscriber struct {
	b       *Broadcast
	ch      chan StreamEvent
	dropped bool
}

// Events is the subscriber's event channel. It is closed when the
// subscriber unsubscribes, is dropped for falling behind, or the
// broadcaster shuts down.
func (s *Subscriber) Events() <-chan StreamEvent {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped reports whether the broadcaster evicted this subscriber for
// falling behind (as opposed to a graceful close).
func (s *Subscriber) Dropped() bool {
	if s == nil || s.b == nil {
		return false
	}
	s.b.mu.Lock()
	defer s.b.mu.Unlock()
	return s.dropped
}

// Close unsubscribes. Safe to call after being dropped.
func (s *Subscriber) Close() {
	if s == nil || s.b == nil {
		return
	}
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[s]; ok {
		delete(b.subs, s)
		close(s.ch)
	}
}
