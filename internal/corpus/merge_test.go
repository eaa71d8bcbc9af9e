package corpus

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// mkFinding builds a distinct finding for tests.
func mkFinding(kind, locA, locB, bench string, seed int64) Finding {
	return Finding{
		Sig:           MakeSignature(kind, locA, locB, kind),
		Bench:         bench,
		Pair:          locA + " <-> " + locB,
		FirstSeenSeed: seed,
		LastSeenSeed:  seed,
		WitnessSeed:   seed,
	}
}

// ingest folds batch's findings and coverage cells into coord one entry at
// a time, as the fleet coordinator folds a worker's result, and reports
// how many signatures and cells were new.
func ingest(coord, batch *Store) (newSigs, newCells int) {
	for _, f := range batch.Findings() {
		if coord.Ingest(f) {
			newSigs++
		}
	}
	for _, c := range batch.Coverage() {
		if coord.IngestCell(c) {
			newCells++
		}
	}
	return newSigs, newCells
}

// TestIngestMatchesSequentialReports is the merge protocol's core claim:
// folding a batch store's aggregates in is equivalent to ingesting its
// sightings one at a time — same findings, same hit counts, same session
// new/known tallies.
func TestIngestMatchesSequentialReports(t *testing.T) {
	// The sequential reference: every sighting ingested as a batch of one.
	seq := NewStore()
	sightings := []Finding{
		mkFinding("race", "a.go:1", "a.go:2", "alpha", 10),
		mkFinding("race", "a.go:1", "a.go:2", "alpha", 11),
		mkFinding("race", "b.go:7", "b.go:9", "alpha", 12),
		mkFinding("race", "a.go:1", "a.go:2", "alpha", 13),
	}
	for _, f := range sightings {
		sight(seq, f)
		observe(seq, f.Sig, "candidate-first")
	}

	// The batched path: the same sightings folded into a worker-local store,
	// then merged into a fresh coordinator store.
	batch := NewStore()
	for _, f := range sightings {
		sight(batch, f)
		observe(batch, f.Sig, "candidate-first")
	}
	coord := NewStore()
	newSigs, newCells := ingest(coord, batch)

	if !reflect.DeepEqual(coord.Findings(), seq.Findings()) {
		t.Fatalf("merged findings differ from sequential:\n%v\nvs\n%v", coord.Findings(), seq.Findings())
	}
	if !reflect.DeepEqual(coord.Coverage(), seq.Coverage()) {
		t.Fatalf("merged coverage differs from sequential:\n%v\nvs\n%v", coord.Coverage(), seq.Coverage())
	}
	wantNew, wantKnown := seq.Counts()
	gotNew, gotKnown := coord.Counts()
	if gotNew != wantNew || gotKnown != wantKnown {
		t.Fatalf("session counters: got (%d,%d), want (%d,%d)", gotNew, gotKnown, wantNew, wantKnown)
	}
	if newSigs != 2 || gotKnown != 2 {
		t.Fatalf("ingest: %d new / %d known signatures, want 2 / 2", newSigs, gotKnown)
	}
	if newCells != 2 {
		t.Fatalf("ingest: %d new cells, want 2", newCells)
	}
}

// TestIngestIntoPopulatedStore covers the dedup side: a batch whose
// signature the coordinator already holds must only grow hit counts.
func TestIngestIntoPopulatedStore(t *testing.T) {
	coord := NewStore()
	sight(coord, mkFinding("race", "x.go:1", "x.go:2", "alpha", 1))

	batch := NewStore()
	f := mkFinding("race", "x.go:1", "x.go:2", "beta", 99)
	f.Exceptions = []string{"NullPointerException"}
	sight(batch, f)
	sight(batch, f) // second sighting in the same batch

	if newSigs, _ := ingest(coord, batch); newSigs != 0 {
		t.Fatalf("ingest: %d new signatures, want 0", newSigs)
	}
	if _, known := coord.Counts(); known != 2 {
		t.Fatalf("ingest: %d known sightings, want 2", known)
	}
	got := coord.Findings()
	if len(got) != 1 {
		t.Fatalf("expected 1 finding, got %d", len(got))
	}
	if got[0].Hits != 3 {
		t.Fatalf("hits = %d, want 3", got[0].Hits)
	}
	if got[0].Bench != "alpha" {
		t.Fatalf("first reporter must win attribution, got %q", got[0].Bench)
	}
	if got[0].LastSeenSeed != 99 {
		t.Fatalf("LastSeenSeed = %d, want 99", got[0].LastSeenSeed)
	}
	if len(got[0].Exceptions) != 1 || got[0].Exceptions[0] != "NullPointerException" {
		t.Fatalf("exceptions not unioned: %v", got[0].Exceptions)
	}
}

// TestConcurrentMerge exercises many goroutines ingesting disjoint batch
// stores (with overlapping signatures) into one coordinator store under
// -race. The final state must be batch-order independent: every signature
// present, hits summed across all batches.
func TestConcurrentMerge(t *testing.T) {
	const batches = 8
	const perBatch = 5
	coord := NewStore()
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batch := NewStore()
			for i := 0; i < perBatch; i++ {
				// "shared" collides across every batch; the rest are unique.
				sight(batch, mkFinding("race", "shared.go:1", "shared.go:2", "alpha", int64(b)))
				f := mkFinding("race", fmt.Sprintf("u%d.go:%d", b, i), fmt.Sprintf("u%d.go:%d", b, i+1), "alpha", int64(b))
				sight(batch, f)
				observe(batch, f.Sig, "candidate-first")
			}
			ingest(coord, batch)
		}(b)
	}
	wg.Wait()

	if got, want := coord.Len(), 1+batches*perBatch; got != want {
		t.Fatalf("signatures = %d, want %d", got, want)
	}
	var sharedHits int64
	for _, f := range coord.Findings() {
		if f.Sig.LocA == "shared.go:1" {
			sharedHits = f.Hits
		}
	}
	if sharedHits != batches*perBatch {
		t.Fatalf("shared hits = %d, want %d", sharedHits, batches*perBatch)
	}
	n, k := coord.Counts()
	if n != int64(1+batches*perBatch) || n+k != int64(2*batches*perBatch) {
		t.Fatalf("counts = (%d,%d), want %d new and %d total sightings", n, k, 1+batches*perBatch, 2*batches*perBatch)
	}
	if got, want := coord.CoverageLen(), batches*perBatch; got != want {
		t.Fatalf("coverage cells = %d, want %d", got, want)
	}
}
