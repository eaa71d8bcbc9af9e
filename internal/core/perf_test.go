package core

import (
	"encoding/json"
	"os"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/schedprof"
)

// collectPerfSink captures emitted records that carry a perf-timeline path.
type collectPerfSink struct{ recs []obs.RunRecord }

func (c *collectPerfSink) Emit(rec obs.RunRecord) {
	if rec.Perf != "" {
		c.recs = append(c.recs, rec)
	}
}

func TestPerfDirExportsTimeline(t *testing.T) {
	dir := t.TempDir()
	sink := &collectPerfSink{}
	o := Options{Seed: 11, Phase2Trials: 20, Label: "fig2",
		Probes: Probes{PerfDir: dir, Sink: obs.MultiSink{obs.NewCampaignMetrics(), sink}}}
	rep := FuzzPair(bench.Figure2(20), bench.Fig2Pair, 0, o)
	if !rep.IsReal {
		t.Fatalf("race not confirmed: %v", rep)
	}
	if rep.PerfErr != nil {
		t.Fatalf("perf export failed: %v", rep.PerfErr)
	}
	if rep.PerfPath == "" {
		t.Fatal("no perf path on report")
	}
	// Exactly one export per target, attached to the first confirming trial.
	if len(sink.recs) != 1 || sink.recs[0].Perf != rep.PerfPath {
		t.Fatalf("perf path not surfaced on the run record: %+v", sink.recs)
	}
	if sink.recs[0].Trial != rep.FirstRaceTrial || sink.recs[0].Seed != rep.FirstRaceSeed {
		t.Fatalf("perf timeline attached to wrong trial: %+v", sink.recs[0])
	}
	// The exported file is valid Chrome trace-event JSON with slices.
	data, err := os.ReadFile(rep.PerfPath)
	if err != nil {
		t.Fatalf("read perf trace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("perf trace is not valid JSON: %v", err)
	}
	slices := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" {
			slices++
		}
	}
	if slices == 0 {
		t.Fatalf("perf trace has no slices (%d events)", len(doc.TraceEvents))
	}
}

// TestPerfExportDoesNotChangeVerdicts mirrors TestCaptureDoesNotChangeVerdicts
// for the profiling re-run: attaching a collector and exporting a timeline
// must be invisible to every verdict and seed the campaign reports.
func TestPerfExportDoesNotChangeVerdicts(t *testing.T) {
	plain := FuzzPair(bench.Figure2(20), bench.Fig2Pair, 0, Options{Seed: 11, Phase2Trials: 20})
	profiled := FuzzPair(bench.Figure2(20), bench.Fig2Pair, 0,
		Options{Seed: 11, Phase2Trials: 20, Probes: Probes{PerfDir: t.TempDir(), Prof: schedprof.NewCollector()}})
	if plain.RaceRuns != profiled.RaceRuns ||
		plain.FirstRaceTrial != profiled.FirstRaceTrial ||
		plain.FirstRaceSeed != profiled.FirstRaceSeed ||
		plain.ExceptionRuns != profiled.ExceptionRuns {
		t.Fatalf("profiling changed the campaign:\nplain:    %+v\nprofiled: %+v", plain, profiled)
	}
}

// TestProfCollectorAggregatesCampaign attaches a collector to a full
// pipeline (sequential and parallel) and checks every execution was folded
// in with per-op-kind latency aggregates.
func TestProfCollectorAggregatesCampaign(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prof := schedprof.NewCollector()
		rep := Analyze(bench.Figure2(20),
			Options{Seed: 3, Phase1Trials: 2, Phase2Trials: 10, Workers: workers, Probes: Probes{Prof: prof}})
		s := prof.Summary()
		wantTrials := int64(2 + len(rep.Potential)*10)
		if s.Trials != wantTrials {
			t.Fatalf("workers=%d: profiled %d trials, campaign ran %d", workers, s.Trials, wantTrials)
		}
		if s.Grants == 0 || len(s.Ops) == 0 {
			t.Fatalf("workers=%d: empty summary: %+v", workers, s)
		}
		for _, op := range s.Ops {
			if op.Count > 0 && op.Service.MaxNs <= 0 {
				t.Fatalf("workers=%d: op %s has samples but no latency", workers, op.Kind)
			}
		}
		if len(s.Phases) != 3 {
			t.Fatalf("workers=%d: phases = %+v", workers, s.Phases)
		}
	}
}

// TestDeadlockAndAtomicityPerfExport checks the other two pipelines export
// timelines for their first confirming trials.
func TestDeadlockAndAtomicityPerfExport(t *testing.T) {
	dir := t.TempDir()
	o := Options{Seed: 5, Phase1Trials: 6, Phase2Trials: 20, Label: "dl", Probes: Probes{PerfDir: dir}}
	cycles := DetectPotentialDeadlocks(abbaProgram(), o)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
	dlRep := confirmDeadlock(abbaProgram(), cycles[0], 0, o)
	if !dlRep.IsReal || dlRep.PerfPath == "" || dlRep.PerfErr != nil {
		t.Fatalf("deadlock perf timeline not exported: %+v", dlRep)
	}

	ao := Options{Seed: 8, Phase1Trials: 6, Phase2Trials: 40, Label: "lu", Probes: Probes{PerfDir: dir}}
	targets := DetectAtomicityTargets(lostUpdateProgram(nil), ao)
	exported := false
	for i, tg := range targets {
		rep := confirmAtomicity(lostUpdateProgram(nil), tg, i, ao)
		if rep.IsReal {
			if rep.PerfPath == "" || rep.PerfErr != nil {
				t.Fatalf("atomicity perf timeline not exported: %+v", rep)
			}
			exported = true
			break
		}
	}
	if !exported {
		t.Fatal("no atomicity target confirmed")
	}
	for _, path := range []string{dlRep.PerfPath} {
		data, err := os.ReadFile(path)
		if err != nil || !json.Valid(data) {
			t.Fatalf("perf trace %s unreadable or invalid (err %v)", path, err)
		}
	}
}
