package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"racefuzzer/internal/analytics"
	"racefuzzer/internal/bench"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/schedprof"
)

// workerSweep is the acceptance grid: sequential (0 and 1 are both the
// sequential path), a small pool, and an oversubscribed pool.
var workerSweep = []int{0, 1, 4, 8}

func TestRunOrderedConsumesInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		var order []int
		runOrdered(workers, 17,
			func(i int) int { return i * i },
			func(i, r int) {
				if r != i*i {
					t.Fatalf("workers=%d: slot %d got %d", workers, i, r)
				}
				order = append(order, i)
			})
		for i, got := range order {
			if got != i {
				t.Fatalf("workers=%d: consume order %v", workers, order)
			}
		}
		if len(order) != 17 {
			t.Fatalf("workers=%d: consumed %d of 17", workers, len(order))
		}
	}
}

func TestRunOrderedEdgeCases(t *testing.T) {
	called := false
	runOrdered(4, 0, func(i int) int { return i }, func(i, r int) { called = true })
	if called {
		t.Fatal("consume called for n=0")
	}
	var n32 atomic.Int32
	runOrdered(-1, 1, func(i int) int { n32.Add(1); return i }, func(i, r int) {})
	if n32.Load() != 1 {
		t.Fatal("n=1 not executed")
	}
}

func TestRunOrderedPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom-7" {
					t.Fatalf("workers=%d: recovered %v, want boom-7", workers, r)
				}
			}()
			runOrdered(workers, 20, func(i int) int {
				if i == 7 {
					panic("boom-7")
				}
				return i
			}, func(i, r int) {
				if i >= 7 {
					t.Fatalf("workers=%d: consumed slot %d past the panic", workers, i)
				}
			})
			t.Fatalf("workers=%d: runOrdered returned instead of panicking", workers)
		}()
	}
}

func TestWorkerCountResolution(t *testing.T) {
	for _, tc := range []struct{ workers, want int }{
		{0, 1}, {1, 1}, {4, 4},
	} {
		if got := (Options{Workers: tc.workers}).workerCount(); got != tc.want {
			t.Errorf("Workers=%d resolved to %d, want %d", tc.workers, got, tc.want)
		}
	}
	if got := (Options{Workers: -1}).workerCount(); got < 1 {
		t.Errorf("Workers=-1 resolved to %d, want >= 1 (NumCPU)", got)
	}
}

// decodeRunLog parses a JSONL run log and zeroes the wall-clock field — the
// single nondeterministic column, populated only under Options.Timing — so
// logs from different worker counts can be compared entry-wise even in
// timing-enabled campaigns.
func decodeRunLog(t *testing.T, raw []byte) []obs.RunRecord {
	t.Helper()
	var recs []obs.RunRecord
	for ln, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("run log line %d: %v", ln, err)
		}
		rec.DurationNs = 0
		recs = append(recs, rec)
	}
	return recs
}

// TestJSONLBitIdenticalWithoutTiming pins the determinism invariant offline
// analytics builds on: with Timing off (the default), two identical
// campaigns write byte-for-byte identical JSONL run logs — no wall-clock
// leaks into the stream. With Timing on, durationNs appears and carries a
// positive wall clock.
func TestJSONLBitIdenticalWithoutTiming(t *testing.T) {
	bm := bench.MustByName("figure2")
	runLog := func(timing bool) []byte {
		var buf bytes.Buffer
		jsonl := obs.NewJSONLSink(&buf)
		Analyze(bm.New(), Options{
			Seed: 9, Phase1Trials: bm.Phase1Trials, Phase2Trials: 10,
			MaxSteps: bm.MaxSteps, Label: bm.Name,
			Probes: Probes{Sink: jsonl, Timing: timing},
		})
		if err := jsonl.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := runLog(false), runLog(false)
	if !bytes.Equal(a, b) {
		t.Fatal("untimed campaigns wrote differing JSONL bytes")
	}
	if strings.Contains(string(a), "durationNs") {
		t.Fatal("untimed log contains durationNs")
	}
	timed := decodeRunLogRaw(t, runLog(true))
	saw := false
	for _, rec := range timed {
		if rec.DurationNs > 0 {
			saw = true
		}
	}
	if !saw {
		t.Fatal("timed log carries no positive durationNs")
	}
}

// decodeRunLogRaw parses a JSONL run log without normalizing any field.
func decodeRunLogRaw(t *testing.T, raw []byte) []obs.RunRecord {
	t.Helper()
	var recs []obs.RunRecord
	for ln, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("run log line %d: %v", ln, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// campaignCounters snapshots a campaign's metrics and appends the
// scheduler profile's exact counts (its rounds, grants, switches and
// actions; its latencies and wall time are nondeterministic). The metrics
// carry no wall-clock gauge without Timing.
func campaignCounters(c *analytics.Live, prof *schedprof.Collector) obs.Snapshot {
	snap := c.Totals().Snapshot()
	snap.Counters = append(snap.Counters, prof.Summary().Snapshot().Counters...)
	return snap
}

// analyzeOnce runs the race pipeline with full observability at the given
// worker count and returns everything the determinism contract covers.
func analyzeOnce(t *testing.T, bm bench.Benchmark, workers int) (*Report, []obs.RunRecord, obs.Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	jsonl := obs.NewJSONLSink(&buf)
	metrics := &analytics.Live{}
	prof := schedprof.NewCollector()
	rep := Analyze(bm.New(), Options{
		Seed:         7,
		Phase1Trials: bm.Phase1Trials,
		Phase2Trials: 25,
		MaxSteps:     bm.MaxSteps,
		Label:        bm.Name,
		Workers:      workers,
		Probes:       Probes{Sink: obs.MultiSink{jsonl, metrics}, Prof: prof},
	})
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	return rep, decodeRunLog(t, buf.Bytes()), campaignCounters(metrics, prof)
}

// TestParallelDeterminismRace is the cross-check the ISSUE's acceptance
// criterion names: Analyze must produce deeply-equal reports — every
// PairReport field, including first-trial indices and seeds, histograms and
// exception kind sets — and identical JSONL run logs at Workers ∈ {0,1,4,8}.
func TestParallelDeterminismRace(t *testing.T) {
	for _, name := range []string{"figure1", "linkedlist", "weblech"} {
		bm := bench.MustByName(name)
		t.Run(name, func(t *testing.T) {
			baseRep, baseLog, baseMetrics := analyzeOnce(t, bm, workerSweep[0])
			if len(baseRep.Potential) == 0 {
				t.Fatalf("%s reported no potential pairs; cross-check is vacuous", name)
			}
			for _, w := range workerSweep[1:] {
				rep, log, metrics := analyzeOnce(t, bm, w)
				if !reflect.DeepEqual(baseRep, rep) {
					t.Errorf("workers=%d: report diverged from sequential\nseq: %+v\npar: %+v", w, baseRep, rep)
				}
				if !reflect.DeepEqual(baseLog, log) {
					t.Errorf("workers=%d: JSONL run log diverged (%d vs %d records)", w, len(baseLog), len(log))
				}
				if !reflect.DeepEqual(baseMetrics, metrics) {
					t.Errorf("workers=%d: campaign metrics diverged\nseq: %+v\npar: %+v", w, baseMetrics, metrics)
				}
			}
		})
	}
}

// TestParallelDeterminismDeadlock cross-checks the deadlock pipeline on the
// classic ABBA model.
func TestParallelDeterminismDeadlock(t *testing.T) {
	run := func(workers int) ([]DeadlockReport, []obs.RunRecord) {
		var buf bytes.Buffer
		jsonl := obs.NewJSONLSink(&buf)
		reps := AnalyzeDeadlocks(abbaProgram(), Options{
			Seed: 3, Phase1Trials: 4, Phase2Trials: 20, Workers: workers,
			Probes: Probes{Sink: jsonl},
		})
		if err := jsonl.Close(); err != nil {
			t.Fatal(err)
		}
		return reps, decodeRunLog(t, buf.Bytes())
	}
	baseReps, baseLog := run(workerSweep[0])
	confirmed := 0
	for _, r := range baseReps {
		if r.IsReal {
			confirmed++
		}
	}
	if confirmed == 0 {
		t.Fatal("no confirmed deadlock; cross-check is vacuous")
	}
	for _, w := range workerSweep[1:] {
		reps, log := run(w)
		if !reflect.DeepEqual(baseReps, reps) {
			t.Errorf("workers=%d: deadlock reports diverged\nseq: %+v\npar: %+v", w, baseReps, reps)
		}
		if !reflect.DeepEqual(baseLog, log) {
			t.Errorf("workers=%d: deadlock run log diverged", w)
		}
	}
}

// TestParallelDeterminismAtomicity cross-checks the atomicity pipeline on
// the weblech model (lost-update pattern).
func TestParallelDeterminismAtomicity(t *testing.T) {
	bm := bench.MustByName("weblech")
	run := func(workers int) ([]AtomicityReport, []obs.RunRecord) {
		var buf bytes.Buffer
		jsonl := obs.NewJSONLSink(&buf)
		reps := AnalyzeAtomicity(bm.New(), Options{
			Seed: 5, Phase1Trials: 3, Phase2Trials: 15, MaxSteps: bm.MaxSteps, Workers: workers,
			Probes: Probes{Sink: jsonl},
		})
		if err := jsonl.Close(); err != nil {
			t.Fatal(err)
		}
		return reps, decodeRunLog(t, buf.Bytes())
	}
	baseReps, baseLog := run(workerSweep[0])
	if len(baseReps) == 0 {
		t.Fatal("no atomicity targets; cross-check is vacuous")
	}
	for _, w := range workerSweep[1:] {
		reps, log := run(w)
		if !reflect.DeepEqual(baseReps, reps) {
			t.Errorf("workers=%d: atomicity reports diverged", w)
		}
		if !reflect.DeepEqual(baseLog, log) {
			t.Errorf("workers=%d: atomicity run log diverged", w)
		}
	}
}

// TestParallelWitnessCaptureDeterministic: with TraceDir set, the witness
// must be the recording of the in-order first confirming trial — same
// relative path, byte-identical recording — at every worker count, even
// though under a pool a later trial can finish first.
func TestParallelWitnessCaptureDeterministic(t *testing.T) {
	bm := bench.MustByName("figure1")
	capture := func(workers int) (*Report, map[string][]byte) {
		dir := t.TempDir()
		rep := Analyze(bm.New(), Options{
			Seed: 7, Phase1Trials: bm.Phase1Trials, Phase2Trials: 20,
			MaxSteps: bm.MaxSteps, Label: bm.Name, Workers: workers,
			Probes: Probes{TraceDir: dir},
		})
		files := make(map[string][]byte)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = data
		}
		return rep, files
	}
	baseRep, baseFiles := capture(workerSweep[0])
	if len(baseFiles) == 0 {
		t.Fatal("sequential campaign captured no witnesses; cross-check is vacuous")
	}
	for _, w := range workerSweep[1:] {
		rep, files := capture(w)
		for i := range baseRep.Pairs {
			seqPath, parPath := filepath.Base(baseRep.Pairs[i].TracePath), filepath.Base(rep.Pairs[i].TracePath)
			if baseRep.Pairs[i].TracePath == "" {
				seqPath = ""
			}
			if rep.Pairs[i].TracePath == "" {
				parPath = ""
			}
			if seqPath != parPath {
				t.Errorf("workers=%d pair %d: witness path %q != sequential %q", w, i, parPath, seqPath)
			}
		}
		if len(files) != len(baseFiles) {
			t.Errorf("workers=%d: captured %d witnesses, sequential captured %d", w, len(files), len(baseFiles))
		}
		for name, data := range baseFiles {
			if !bytes.Equal(files[name], data) {
				t.Errorf("workers=%d: witness %s differs from sequential capture", w, name)
			}
		}
	}
}

// TestParallelPhase1Deterministic: phase-1 detection alone must report the
// same pair list at any worker count (union order is normalized by sorting,
// first-seen orders by in-order merge).
func TestParallelPhase1Deterministic(t *testing.T) {
	bm := bench.MustByName("weblech")
	base := DetectPotentialRaces(bm.New(), Options{Seed: 2, Phase1Trials: 6, MaxSteps: bm.MaxSteps})
	for _, w := range workerSweep[1:] {
		got := DetectPotentialRaces(bm.New(), Options{Seed: 2, Phase1Trials: 6, MaxSteps: bm.MaxSteps, Workers: w})
		if fmt.Sprint(got) != fmt.Sprint(base) {
			t.Errorf("workers=%d: phase-1 pairs %v != sequential %v", w, got, base)
		}
	}
}
