package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(RunRecord{Label: "demo", Phase: 2, Kind: "race", PairIndex: 1, Trial: 3,
		Seed: 42, RaceCreated: true, Races: 2, StepsToRace: 17, Steps: 90})
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
	if na, nb := counters(a.Snapshot())["runs.total"], counters(b.Snapshot())["runs.total"]; na != 1 || nb != 1 {
		t.Fatalf("fan-out failed: %d %d", na, nb)
	}
	Emit(nil, RunRecord{}) // must not panic
	var nilC *CampaignMetrics
	nilC.Emit(RunRecord{})
	if snap := nilC.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil campaign snapshot non-empty")
	}
}

// counters indexes a snapshot's counters by name.
func counters(s Snapshot) map[string]int64 {
	m := map[string]int64{}
	for _, nc := range s.Counters {
		m[nc.Name] = nc.Value
	}
	return m
}

// gauges indexes a snapshot's gauges by name.
func gauges(s Snapshot) map[string]float64 {
	m := map[string]float64{}
	for _, ng := range s.Gauges {
		m[ng.Name] = ng.Value
	}
	return m
}

func TestCampaignMetricsAggregation(t *testing.T) {
	c := NewCampaignMetrics()
	c.Emit(RunRecord{Phase: 1, Steps: 10, StepsToRace: -1})
	c.Emit(RunRecord{Phase: 2, Steps: 20, StepsToRace: -1, Aborted: true})
	c.Emit(RunRecord{Phase: 2, Steps: 30, RaceCreated: true, StepsToRace: 120,
		Races: 1, Exceptions: []string{"NPE"}, Trace: "w.trace.jsonl", Finding: "new",
		DurationNs: int64(500 * time.Millisecond)})

	s := c.Snapshot()
	got := counters(s)
	want := map[string]int64{
		"runs.total": 3, "trials.total": 2, "runs.phase1": 1, "runs.race": 1,
		"runs.exception": 1, "runs.aborted": 1, "runs.deadlock": 0,
		"sched.steps": 60, "traces.captured": 1, "findings.new": 1, "findings.known": 0,
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("%s = %d, want %d", name, got[name], w)
		}
	}
	g := gauges(s)
	if g["race.first_run"] != 2 {
		t.Fatalf("race.first_run = %v", g["race.first_run"])
	}
	if g["race.hit_rate"] != 1.0/3.0 {
		t.Fatalf("race.hit_rate = %v", g["race.hit_rate"])
	}
	if g["wall.seconds"] != 0.5 {
		t.Fatalf("wall.seconds = %v", g["wall.seconds"])
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "steps_to_race" {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	if h := s.Histograms[0].Hist; h.Count != 1 || h.Min != 120 {
		t.Fatalf("steps_to_race = %+v", h)
	}
}

// TestCampaignMetricsWithoutStats: records that carry no durationNs (a
// campaign without -timing, in-process or a fleet worker's) leave the
// wall.seconds gauge out of the snapshot instead of reporting a zero that
// was never measured; the other rows stay.
func TestCampaignMetricsWithoutStats(t *testing.T) {
	c := NewCampaignMetrics()
	c.Emit(RunRecord{Phase: 1, Steps: 10, StepsToRace: -1})
	c.Emit(RunRecord{Phase: 2, Steps: 20, RaceCreated: true, StepsToRace: 7})
	s := c.Snapshot()
	if w, ok := gauges(s)["wall.seconds"]; ok {
		t.Errorf("snapshot reports wall.seconds = %v without any durationNs", w)
	}
	names := map[string]bool{}
	for _, nc := range s.Counters {
		names[nc.Name] = true
	}
	for name := range gauges(s) {
		names[name] = true
	}
	for _, nh := range s.Histograms {
		names[nh.Name] = true
	}
	for _, want := range []string{"runs.total", "sched.steps", "race.first_run", "race.hit_rate", "steps_to_race"} {
		if !names[want] {
			t.Errorf("snapshot lacks %s", want)
		}
	}
}

// TestReadJSONL: blank lines are skipped, a bad final line is skipped and
// reported torn, and a bad line with another after it is an error naming
// the input and the line.
func TestReadJSONL(t *testing.T) {
	read := func(in string) ([]string, bool, error) {
		var got []string
		torn, err := ReadJSONL(strings.NewReader(in), "x.jsonl", func(line []byte) error {
			var v struct{ N string }
			if err := json.Unmarshal(line, &v); err != nil {
				return err
			}
			got = append(got, v.N)
			return nil
		})
		return got, torn, err
	}
	got, torn, err := read(`{"n":"a"}` + "\n\n  \n" + `{"n":"b"}` + "\r\n")
	if err != nil || torn || strings.Join(got, ",") != "a,b" {
		t.Fatalf("whole input: %v torn=%v err=%v", got, torn, err)
	}
	got, torn, err = read(`{"n":"a"}` + "\n" + `{"n":"b`)
	if err != nil || !torn || strings.Join(got, ",") != "a" {
		t.Fatalf("torn tail: %v torn=%v err=%v", got, torn, err)
	}
	_, _, err = read(`{"n":"a"}` + "\n" + `{"n":` + "\n\n" + `{"n":"c"}` + "\n")
	if err == nil || !strings.HasPrefix(err.Error(), "x.jsonl: line 2: ") {
		t.Fatalf("mid-file damage: err = %v", err)
	}
	_, _, err = read(strings.Repeat("x", 16*1024*1024+1))
	if err == nil || !strings.HasPrefix(err.Error(), "x.jsonl: ") {
		t.Fatalf("oversized line: err = %v", err)
	}
}
