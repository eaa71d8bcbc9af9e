package obs_test

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"racefuzzer/internal/analytics"
	"racefuzzer/internal/obs"
)

func TestMultiSinkAndNilEmit(t *testing.T) {
	a, b := &analytics.Live{}, &analytics.Live{}
	m := obs.MultiSink{a, nil, b}
	m.Emit(obs.RunRecord{Phase: 2})
	if na, nb := a.Totals().Runs, b.Totals().Runs; na != 1 || nb != 1 {
		t.Fatalf("fan-out failed: %d %d", na, nb)
	}
	obs.Emit(nil, obs.RunRecord{}) // must not panic
}

// TestMultiSinkConcurrentEmit: the fan-out -json and -metrics share (run
// log + campaign totals) must also hold up under concurrent emitters.
func TestMultiSinkConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	jsonl := obs.NewJSONLSink(&buf)
	metrics := &analytics.Live{}
	m := obs.MultiSink{metrics, jsonl}
	const n = 100
	var wg sync.WaitGroup
	wg.Add(4)
	for g := 0; g < 4; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				m.Emit(obs.RunRecord{Phase: 2, StepsToRace: -1, Steps: 1})
			}
		}()
	}
	wg.Wait()
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if runs := metrics.Totals().Runs; runs != n {
		t.Fatalf("metrics aggregated %d runs, want %d", runs, n)
	}
	if got := strings.Count(buf.String(), "\n"); got != n {
		t.Fatalf("jsonl wrote %d lines, want %d", got, n)
	}
}
