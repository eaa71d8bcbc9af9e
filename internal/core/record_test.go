package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"racefuzzer/internal/analytics"
	"racefuzzer/internal/bench"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/obs"
)

// recordingBytes serializes a recording the way SaveFile would.
func recordingBytes(t *testing.T, rec *flightrec.Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// TestRecordedReplayByteIdentical is the §2.2 determinism claim as a test:
// for a fixed seed, two in-process recordings of the same directed run are
// byte-identical — decisions (with RNG draw positions), policy actions,
// events, and summary — for each of the three pipelines and several seeds.
func TestRecordedReplayByteIdentical(t *testing.T) {
	seeds := []int64{3, 47, 901, -12}
	o := Options{Label: "determinism"}

	check := func(t *testing.T, prog func() Program, tg Target) {
		t.Helper()
		for _, seed := range seeds {
			if _, _, d := VerifyReplay(prog(), tg, seed, o); d != nil {
				t.Fatalf("seed %d: %v", seed, d)
			}
			_, _, a := Record(prog(), tg, seed, o)
			_, _, b := Record(prog(), tg, seed, o)
			if !bytes.Equal(recordingBytes(t, a), recordingBytes(t, b)) {
				t.Fatalf("seed %d: serialized recordings differ", seed)
			}
		}
	}
	t.Run("race", func(t *testing.T) {
		check(t, func() Program { return bench.Figure2(20) }, newRaceTarget(bench.Fig2Pair))
	})
	t.Run("deadlock", func(t *testing.T) {
		targets := DetectTargets("deadlock", abbaProgram(), Options{Seed: 5, Phase1Trials: 6})
		if len(targets) != 1 {
			t.Fatalf("cycles = %v", targets)
		}
		check(t, abbaProgram, targets[0])
	})
	t.Run("atomicity", func(t *testing.T) {
		targets := DetectTargets("atomicity", lostUpdateProgram(nil), Options{Seed: 8, Phase1Trials: 6})
		if len(targets) == 0 {
			t.Fatal("no atomicity targets inferred")
		}
		check(t, func() Program { return lostUpdateProgram(nil) }, targets[0])
	})
}

// TestDivergeReportsExactPerturbedRecord perturbs one record of a recording
// and checks the detector names exactly that record index — the "fails
// loudly with the first divergent step" contract.
func TestDivergeReportsExactPerturbedRecord(t *testing.T) {
	_, _, want := Record(bench.Figure2(10), newRaceTarget(bench.Fig2Pair), 7, Options{})
	if len(want.Records) < 10 {
		t.Fatalf("recording too short: %d records", len(want.Records))
	}
	// Find a decision record to perturb (its grants are scheduling-visible).
	idx := -1
	for i, r := range want.Records {
		if r.Dec != nil && len(r.Dec.Grants) > 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no granting decision in recording")
	}

	got := &flightrec.Recording{Header: want.Header, Records: append([]flightrec.Record(nil), want.Records...)}
	perturbed := *got.Records[idx].Dec
	perturbed.Grants = append([]int{99}, perturbed.Grants...)
	got.Records[idx] = flightrec.Record{Dec: &perturbed}

	d := flightrec.Diverge(got, want)
	if d == nil {
		t.Fatal("perturbation not detected")
	}
	if d.Index != idx {
		t.Fatalf("divergence at record %d, want %d: %v", d.Index, idx, d)
	}
	if d.Step != want.Records[idx].Step() {
		t.Fatalf("divergence step %d, want %d", d.Step, want.Records[idx].Step())
	}
	if !strings.Contains(d.String(), "replay divergence at record") {
		t.Fatalf("unhelpful divergence report: %q", d.String())
	}

	// A truncated recording is reported at the first missing record.
	short := &flightrec.Recording{Header: want.Header, Records: want.Records[:len(want.Records)-2]}
	d = flightrec.Diverge(short, want)
	if d == nil || d.Index != len(want.Records)-2 || d.Got != "<end of recording>" {
		t.Fatalf("truncation not pinpointed: %v", d)
	}

	// Header disagreement is its own case.
	other := &flightrec.Recording{Header: want.Header, Records: want.Records}
	other.Header.Seed++
	if d = flightrec.Diverge(other, want); d == nil || d.Index != -1 {
		t.Fatalf("header mismatch not detected: %v", d)
	}
}

// witnessDir is t.TempDir, except that when RACEFUZZER_TRACE_DIR is set
// (CI does this) the directory lives under it and is kept on failure so the
// captured *.trace.jsonl witnesses can be uploaded as artifacts.
func witnessDir(t *testing.T) string {
	base := os.Getenv("RACEFUZZER_TRACE_DIR")
	if base == "" {
		return t.TempDir()
	}
	dir := filepath.Join(base, strings.ReplaceAll(t.Name(), "/", "_"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			os.RemoveAll(dir)
		}
	})
	return dir
}

// collectTraceSink captures emitted records that carry a trace path.
type collectTraceSink struct{ recs []obs.RunRecord }

func (c *collectTraceSink) Emit(rec obs.RunRecord) {
	if rec.Trace != "" {
		c.recs = append(c.recs, rec)
	}
}

func TestTraceDirCapturesRaceWitness(t *testing.T) {
	dir := witnessDir(t)
	metrics := &analytics.Live{}
	sink := &collectTraceSink{}
	o := Options{Seed: 11, Phase2Trials: 20, Label: "fig2", Probes: Probes{TraceDir: dir, Sink: obs.MultiSink{metrics, sink}}}
	rep := FuzzPair(bench.Figure2(20), bench.Fig2Pair, 0, o)
	if !rep.IsReal {
		t.Fatalf("race not confirmed: %v", rep)
	}
	if rep.TraceErr != nil {
		t.Fatalf("capture failed: %v", rep.TraceErr)
	}
	if rep.TracePath == "" {
		t.Fatal("no witness path on report")
	}

	// Exactly one witness per target, surfaced in the run log and metrics.
	if len(sink.recs) != 1 || sink.recs[0].Trace != rep.TracePath {
		t.Fatalf("trace path not surfaced on the run record: %+v", sink.recs)
	}
	if sink.recs[0].Trial != rep.FirstRaceTrial || sink.recs[0].Seed != rep.FirstRaceSeed {
		t.Fatalf("witness attached to wrong trial: %+v", sink.recs[0])
	}
	if n := metrics.Totals().Traces; n != 1 {
		t.Fatalf("traces.captured = %d, want 1", n)
	}

	// The archived witness reloads, confirms the race, and replays exactly.
	loaded, err := flightrec.LoadFile(rep.TracePath)
	if err != nil {
		t.Fatalf("load witness: %v", err)
	}
	if loaded.Summary().Races == 0 {
		t.Fatal("witness recording has no race")
	}
	if loaded.Header.Seed != rep.FirstRaceSeed || loaded.Header.Kind != "race" {
		t.Fatalf("witness header = %+v", loaded.Header)
	}
	_, _, fresh := Record(bench.Figure2(20), newRaceTarget(bench.Fig2Pair), rep.FirstRaceSeed, o)
	if d := flightrec.Diverge(fresh, loaded); d != nil {
		t.Fatalf("witness does not replay: %v", d)
	}

	// Reloading must re-explain bit-identically.
	if fresh.Explain() != loaded.Explain() {
		t.Fatal("reloaded witness explains differently")
	}
	if !strings.Contains(loaded.Explain(), "REAL RACE") {
		t.Fatalf("explanation missing the race:\n%s", loaded.Explain())
	}
}

func TestTraceDirCapturesDeadlockAndAtomicityWitnesses(t *testing.T) {
	dir := witnessDir(t)
	o := Options{Seed: 5, Phase1Trials: 6, Phase2Trials: 20, Label: "dl", Probes: Probes{TraceDir: dir}}
	cycles := DetectPotentialDeadlocks(abbaProgram(), o)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	dlRep := confirmDeadlock(abbaProgram(), cycles[0], 0, o)
	if !dlRep.IsReal || dlRep.TracePath == "" || dlRep.TraceErr != nil {
		t.Fatalf("deadlock witness not captured: %+v", dlRep)
	}
	loaded, err := flightrec.LoadFile(dlRep.TracePath)
	if err != nil {
		t.Fatalf("load deadlock witness: %v", err)
	}
	if !loaded.Summary().Deadlock {
		t.Fatal("deadlock witness has no deadlock")
	}
	if !strings.Contains(loaded.Explain(), "real deadlock at step") {
		t.Fatalf("deadlock explanation:\n%s", loaded.Explain())
	}

	ao := Options{Seed: 8, Phase1Trials: 6, Phase2Trials: 40, Label: "lu", Probes: Probes{TraceDir: dir}}
	targets := DetectAtomicityTargets(lostUpdateProgram(nil), ao)
	var confirmed *AtomicityReport
	for i, tg := range targets {
		rep := confirmAtomicity(lostUpdateProgram(nil), tg, i, ao)
		if rep.IsReal {
			confirmed = &rep
			break
		}
	}
	if confirmed == nil {
		t.Fatal("no atomicity target confirmed")
	}
	if confirmed.TracePath == "" || confirmed.TraceErr != nil {
		t.Fatalf("atomicity witness not captured: %+v", confirmed)
	}
	aLoaded, err := flightrec.LoadFile(confirmed.TracePath)
	if err != nil {
		t.Fatalf("load atomicity witness: %v", err)
	}
	if aLoaded.Summary().Races == 0 {
		t.Fatal("atomicity witness has no violation")
	}
	if !strings.Contains(aLoaded.Explain(), "ATOMICITY VIOLATION") {
		t.Fatalf("atomicity explanation:\n%s", aLoaded.Explain())
	}

	// Witness files are named by label/kind/target/trial under TraceDir.
	names, err := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
	if err != nil || len(names) < 2 {
		t.Fatalf("witness files = %v (err %v)", names, err)
	}
	for _, n := range names {
		if _, err := os.Stat(n); err != nil {
			t.Fatalf("stat %s: %v", n, err)
		}
	}
}

// TestCaptureDoesNotChangeVerdicts runs the same campaign with and without
// TraceDir: the auto-capture re-run must be invisible to every verdict and
// seed the campaign reports.
func TestCaptureDoesNotChangeVerdicts(t *testing.T) {
	plain := FuzzPair(bench.Figure2(20), bench.Fig2Pair, 0, Options{Seed: 11, Phase2Trials: 20})
	captured := FuzzPair(bench.Figure2(20), bench.Fig2Pair, 0,
		Options{Seed: 11, Phase2Trials: 20, Probes: Probes{TraceDir: witnessDir(t)}})
	if plain.RaceRuns != captured.RaceRuns ||
		plain.FirstRaceTrial != captured.FirstRaceTrial ||
		plain.FirstRaceSeed != captured.FirstRaceSeed ||
		plain.ExceptionRuns != captured.ExceptionRuns {
		t.Fatalf("capture changed the campaign:\nplain:    %+v\ncaptured: %+v", plain, captured)
	}
}
