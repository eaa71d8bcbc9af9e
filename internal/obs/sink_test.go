package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestJSONLSinkSeq: sequential emission stamps Seq 0, 1, 2, … in arrival
// order — the field the parallel determinism cross-checks compare.
func TestJSONLSinkSeq(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for i := 0; i < 5; i++ {
		s.Emit(RunRecord{Phase: 2, Trial: i, StepsToRace: -1})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("wrote %d lines", len(lines))
	}
	for i, line := range lines {
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if rec.Seq != int64(i) || rec.Trial != i {
			t.Fatalf("line %d: seq=%d trial=%d, want seq==trial==%d", i, rec.Seq, rec.Trial, i)
		}
	}
}

// TestJSONLSinkAutoFlush: with AutoFlush(n) every n-th record drains the
// buffer, so a `tail -f` reader sees complete lines mid-campaign; without
// it, nothing reaches the writer before Flush/Close.
func TestJSONLSinkAutoFlush(t *testing.T) {
	countLines := func(b *bytes.Buffer) int {
		s := b.String()
		if s == "" {
			return 0
		}
		if !strings.HasSuffix(s, "\n") {
			t.Fatalf("partial line reached the writer: %q", s)
		}
		return strings.Count(s, "\n")
	}

	var plain bytes.Buffer
	p := NewJSONLSink(&plain)
	for i := 0; i < 3; i++ {
		p.Emit(RunRecord{Trial: i})
	}
	if n := countLines(&plain); n != 0 {
		t.Fatalf("default sink leaked %d lines before Flush", n)
	}

	var buf bytes.Buffer
	s := NewJSONLSink(&buf).AutoFlush(2)
	s.Emit(RunRecord{Trial: 0})
	if n := countLines(&buf); n != 0 {
		t.Fatalf("flushed after 1 record with AutoFlush(2): %d lines", n)
	}
	s.Emit(RunRecord{Trial: 1})
	if n := countLines(&buf); n != 2 {
		t.Fatalf("after 2nd record: %d complete lines, want 2", n)
	}
	s.Emit(RunRecord{Trial: 2})
	if n := countLines(&buf); n != 2 {
		t.Fatalf("3rd record flushed early: %d lines", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := countLines(&buf); n != 3 {
		t.Fatalf("after Close: %d lines, want 3", n)
	}
}

// TestJSONLSinkConcurrentEmit hammers one sink from many goroutines and
// checks the invariants parallel campaigns rely on: every record lands as
// valid single-line JSON (no interleaved bytes), nothing is lost, and the
// Seq stamps form exactly {0..n-1} in file order, so sorting by any stable
// key recovers a deterministic view of the log.
func TestJSONLSinkConcurrentEmit(t *testing.T) {
	const goroutines, perG = 8, 50
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.Emit(RunRecord{
					Phase: 2, Kind: "race", PairIndex: g, Trial: i,
					Seed: int64(g*1000 + i), StepsToRace: -1,
				})
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("wrote %d lines, want %d", len(lines), goroutines*perG)
	}
	seenSeq := make(map[int64]bool)
	perGoroutine := make(map[int][]int)
	for i, line := range lines {
		var rec RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d corrupted under concurrency: %v\n%s", i, err, line)
		}
		if rec.Seq != int64(i) {
			t.Fatalf("line %d carries seq %d: file order must equal stamp order", i, rec.Seq)
		}
		if seenSeq[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seenSeq[rec.Seq] = true
		perGoroutine[rec.PairIndex] = append(perGoroutine[rec.PairIndex], rec.Trial)
	}
	// Each emitter's own records keep their relative order (the lock
	// serializes whole records, it never reorders an emitter against itself).
	for g, trials := range perGoroutine {
		if len(trials) != perG {
			t.Fatalf("goroutine %d: %d records, want %d", g, len(trials), perG)
		}
		if !sort.IntsAreSorted(trials) {
			t.Fatalf("goroutine %d records reordered: %v", g, trials)
		}
	}
}

// TestMultiSinkConcurrentEmit: the fan-out -json and -metrics share (run
// log + campaign metrics) must also hold up under concurrent emitters.
func TestMultiSinkConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	jsonl := NewJSONLSink(&buf)
	metrics := NewCampaignMetrics()
	m := MultiSink{metrics, jsonl}
	const n = 100
	var wg sync.WaitGroup
	wg.Add(4)
	for g := 0; g < 4; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				m.Emit(RunRecord{Phase: 2, StepsToRace: -1, Steps: 1})
			}
		}()
	}
	wg.Wait()
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if runs := counters(metrics.Snapshot())["runs.total"]; runs != n {
		t.Fatalf("metrics aggregated %d runs, want %d", runs, n)
	}
	if got := strings.Count(buf.String(), "\n"); got != n {
		t.Fatalf("jsonl wrote %d lines, want %d", got, n)
	}
}
