package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"racefuzzer/internal/event"
)

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(RunRecord{Label: "demo", Phase: 2, Kind: "race", PairIndex: 1, Trial: 3,
		Seed: 42, RaceCreated: true, Races: 2, StepsToRace: 17, Steps: 90,
		Stats: &RunStats{Steps: 90}})
	s.Emit(RunRecord{Label: "demo", Phase: 1, PairIndex: -1, StepsToRace: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if rec["label"] != "demo" || rec["seed"] != float64(42) || rec["raceCreated"] != true {
		t.Fatalf("record = %v", rec)
	}
	// Stats rides along in-process only — never serialized.
	if _, ok := rec["Stats"]; ok {
		t.Fatal("Stats leaked into JSONL")
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if rec["stepsToRace"] != float64(-1) {
		t.Fatalf("sentinel lost: %v", rec["stepsToRace"])
	}
}

func TestMultiSinkAndNilEmit(t *testing.T) {
	a, b := NewCampaignMetrics(), NewCampaignMetrics()
	m := MultiSink{a, nil, b}
	m.Emit(RunRecord{Phase: 2})
	if a.Runs() != 1 || b.Runs() != 1 {
		t.Fatalf("fan-out failed: %d %d", a.Runs(), b.Runs())
	}
	Emit(nil, RunRecord{}) // must not panic
	var nilC *CampaignMetrics
	nilC.Emit(RunRecord{})
	if nilC.Runs() != 0 {
		t.Fatal("nil campaign recorded")
	}
	if snap := nilC.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil campaign snapshot non-empty")
	}
}

func TestCampaignMetricsAggregation(t *testing.T) {
	c := NewCampaignMetrics()
	c.Emit(RunRecord{Phase: 1, Steps: 10, StepsToRace: -1,
		Stats: &RunStats{Steps: 10, Switches: 2, Decisions: 11}})
	c.Emit(RunRecord{Phase: 2, Steps: 20, StepsToRace: -1, Aborted: true,
		Stats: &RunStats{Steps: 20, Switches: 5, Decisions: 21, Postpones: 3}})
	enabled := NewEnabledHistogram()
	enabled.Observe(2)
	st := &RunStats{Enabled: enabled.Snapshot(), Wall: 500 * time.Millisecond}
	st.Events[event.KindMem] = 2
	c.Emit(RunRecord{Phase: 2, Steps: 30, RaceCreated: true, StepsToRace: 120,
		Races: 1, Exceptions: []string{"NPE"}, Stats: st})

	s := c.Snapshot()
	counters := map[string]int64{}
	for _, nc := range s.Counters {
		counters[nc.Name] = nc.Value
	}
	want := map[string]int64{
		"runs.total": 3, "runs.phase1": 1, "runs.race": 1,
		"runs.exception": 1, "runs.aborted": 1, "runs.deadlock": 0,
		"sched.steps": 60, "sched.switches": 7,
		"policy.decisions": 32, "policy.postpones": 3,
		"events." + event.KindMem.String(): 2,
	}
	for name, w := range want {
		if counters[name] != w {
			t.Fatalf("%s = %d, want %d", name, counters[name], w)
		}
	}
	gauges := map[string]float64{}
	for _, ng := range s.Gauges {
		gauges[ng.Name] = ng.Value
	}
	if gauges["race.first_run"] != 2 {
		t.Fatalf("race.first_run = %v", gauges["race.first_run"])
	}
	if gauges["race.hit_rate"] != 1.0/3.0 {
		t.Fatalf("race.hit_rate = %v", gauges["race.hit_rate"])
	}
	if gauges["wall.seconds"] != 0.5 {
		t.Fatalf("wall.seconds = %v", gauges["wall.seconds"])
	}
	hists := map[string]HistogramSnapshot{}
	for _, nh := range s.Histograms {
		hists[nh.Name] = nh.Hist
	}
	if h := hists["steps_to_race"]; h.Count != 1 || h.Min != 120 {
		t.Fatalf("steps_to_race = %+v", h)
	}
	if h := hists["enabled_threads"]; h.Count != 1 || h.Min != 2 {
		t.Fatalf("enabled_threads = %+v", h)
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, time.Second)
	clock := time.Unix(0, 0)
	p.now = func() time.Time { return clock }

	p.Emit(RunRecord{Pair: "(a, b)"}) // starts the clock; no line yet
	if buf.Len() != 0 {
		t.Fatalf("premature output: %q", buf.String())
	}
	clock = clock.Add(500 * time.Millisecond)
	p.Emit(RunRecord{RaceCreated: true})
	if buf.Len() != 0 {
		t.Fatalf("rate limit broken: %q", buf.String())
	}
	clock = clock.Add(600 * time.Millisecond) // 1.1s elapsed: due
	p.Emit(RunRecord{Exceptions: []string{"NPE"}, Deadlock: true})
	out := buf.String()
	if !strings.Contains(out, "runs=3") || !strings.Contains(out, "races=1") ||
		!strings.Contains(out, "exceptions=1") || !strings.Contains(out, "deadlocks=1") ||
		!strings.Contains(out, "target=(a, b)") {
		t.Fatalf("progress line = %q", out)
	}
	buf.Reset()
	p.Finish()
	if !strings.Contains(buf.String(), "runs=3") {
		t.Fatalf("finish line = %q", buf.String())
	}

	// Nil progress is a no-op sink.
	var nilP *Progress
	nilP.Emit(RunRecord{})
	nilP.Finish()

	// A progress with no runs prints nothing on Finish.
	var quiet bytes.Buffer
	NewProgress(&quiet, 0).Finish()
	if quiet.Len() != 0 {
		t.Fatalf("empty finish printed: %q", quiet.String())
	}
}
