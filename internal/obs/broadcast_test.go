package obs

import (
	"sync"
	"testing"
)

// TestBroadcastAllSubscribersSeeEveryEventInOrder runs N concurrent
// subscribers against a concurrent publisher and checks each receives the
// full event stream in strictly increasing Seq order (run under -race in
// CI, which is the real assertion about the locking).
func TestBroadcastAllSubscribersSeeEveryEventInOrder(t *testing.T) {
	const subs, events = 8, 200
	b := NewBroadcast()

	var wg sync.WaitGroup
	received := make([][]int64, subs)
	for i := 0; i < subs; i++ {
		sub := b.Subscribe(2*events + 1) // roomy (2 events per Emit): nobody dropped
		wg.Add(1)
		go func(i int, sub *Subscriber) {
			defer wg.Done()
			for ev := range sub.Events() {
				received[i] = append(received[i], ev.Seq)
			}
		}(i, sub)
	}

	for n := 0; n < events; n++ {
		b.Emit(RunRecord{Phase: 2, Kind: "race", Trial: n, Finding: "new"})
	}
	b.Close()
	wg.Wait()

	// Emit publishes a "run" event plus a companion "finding" event.
	want := int64(2 * events)
	for i, seqs := range received {
		if int64(len(seqs)) != want {
			t.Fatalf("subscriber %d received %d events, want %d", i, len(seqs), want)
		}
		for j := 1; j < len(seqs); j++ {
			if seqs[j] <= seqs[j-1] {
				t.Fatalf("subscriber %d: Seq not strictly increasing at %d: %d then %d",
					i, j, seqs[j-1], seqs[j])
			}
		}
	}
}

// TestBroadcastDropsStalledSubscriberWithoutBlocking publishes far past a
// 1-slot subscriber that never reads: the publisher must never block, the
// stalled subscriber must be evicted (channel closed, marked dropped), and a
// healthy subscriber must keep receiving everything.
func TestBroadcastDropsStalledSubscriberWithoutBlocking(t *testing.T) {
	b := NewBroadcast()
	stalled := b.Subscribe(1)
	healthy := b.Subscribe(100)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			b.Publish(StreamEvent{Type: "run"})
		}
	}()
	<-done // a blocked publisher would hang the test here

	if !stalled.Dropped() {
		t.Fatal("stalled subscriber not marked dropped")
	}
	if healthy.Dropped() {
		t.Fatal("healthy subscriber marked dropped")
	}
	// The stalled subscriber's channel is closed after its buffered backlog.
	n := 0
	for range stalled.Events() {
		n++
	}
	if n > 1 {
		t.Fatalf("stalled subscriber drained %d events from a 1-slot buffer", n)
	}

	got := 0
	b.Close()
	for range healthy.Events() {
		got++
	}
	if got != 50 {
		t.Fatalf("healthy subscriber received %d of 50 events", got)
	}
}

func TestBroadcastSubscribeAfterClose(t *testing.T) {
	b := NewBroadcast()
	b.Close()
	sub := b.Subscribe(4)
	if _, open := <-sub.Events(); open {
		t.Fatal("subscription on a closed broadcaster yielded a live channel")
	}
	// Publishing after close is a rejected no-op, not a panic.
	if seq := b.Publish(StreamEvent{Type: "run"}); seq != -1 {
		t.Fatalf("publish after close returned seq %d, want -1", seq)
	}
}

func TestNilBroadcastIsInert(t *testing.T) {
	var b *Broadcast
	b.Emit(RunRecord{})
	b.Close()
	if seq := b.Publish(StreamEvent{}); seq != -1 {
		t.Fatalf("nil broadcaster published seq %d, want -1", seq)
	}
	if sub := b.Subscribe(1); sub != nil {
		t.Fatal("nil broadcaster yielded a subscription")
	}
}
