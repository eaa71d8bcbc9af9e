package schedprof_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTimeline is a fixed, clock-free timeline so the exported trace is
// byte-stable across runs.
func goldenTimeline() *schedprof.Timeline {
	span := func(kind sched.OpKind, thread, step int32, startNs, waitNs, durNs int64) schedprof.Span {
		return schedprof.Span{StartNs: startNs, WaitNs: waitNs, DurNs: durNs, Thread: thread, Kind: int32(kind), Step: step}
	}
	return &schedprof.Timeline{
		Name:    "figure1",
		Seed:    42,
		Threads: []string{"main", "worker"},
		Spans: []schedprof.Span{
			span(sched.OpBegin, 0, 1, 1_000, 500, 2_000),
			span(sched.OpFork, 0, 2, 4_000, 1_000, 3_000),
			span(sched.OpBegin, 1, 3, 8_000, 1_000, 1_500),
			span(sched.OpLock, 1, 4, 10_000, 500, 2_500),
			span(sched.OpWrite, 1, 5, 13_000, 0, 1_000),
			span(sched.OpUnlock, 1, 6, 15_000, 1_000, 1_000),
			span(sched.OpJoin, 0, 7, 17_000, 13_000, 2_000),
		},
		Phase: [sched.NumPhases]int64{800, 19_500, 20_000},
	}
}

func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTimeline().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output drifted from %s (regenerate with -update)\ngot:\n%s", golden, buf.String())
	}
}

// TestTraceIsValidChromeTraceJSON checks the structural contract Perfetto
// and chrome://tracing rely on: a traceEvents array of objects that each
// carry name/ph/pid/tid, with complete ("X") events adding ts and dur.
func TestTraceIsValidChromeTraceJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTimeline().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	sawSlice, sawMeta, threadNames := 0, 0, map[string]bool{}
	for i, ev := range doc.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		switch ev["ph"] {
		case "X":
			sawSlice++
			ts, tsOK := ev["ts"].(float64)
			if !tsOK || ts < 0 {
				t.Fatalf("event %d: bad ts %v", i, ev["ts"])
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("event %d: X event without numeric dur: %v", i, ev)
			}
		case "M":
			sawMeta++
			if ev["name"] == "thread_name" {
				args := ev["args"].(map[string]any)
				threadNames[args["name"].(string)] = true
			}
		default:
			t.Fatalf("event %d: unexpected phase %v", i, ev["ph"])
		}
	}
	if sawSlice == 0 || sawMeta == 0 {
		t.Fatalf("trace lacks slices (%d) or metadata (%d)", sawSlice, sawMeta)
	}
	// One track per thread plus the scheduler track.
	for _, want := range []string{"scheduler", "T0 main", "T1 worker"} {
		if !threadNames[want] {
			t.Errorf("missing thread_name %q (have %v)", want, threadNames)
		}
	}
}

func TestSaveFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trial.perf.json")
	if err := goldenTimeline().SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("saved trace is not valid JSON")
	}
}

// SaveFile must create missing parent directories: -perfdir points at a
// directory that typically does not exist yet when the first confirming
// trial exports.
func TestSaveFileCreatesParentDirs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf", "nested", "trial.perf.json")
	if err := goldenTimeline().SaveFile(path); err != nil {
		t.Fatalf("SaveFile into missing directory: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("saved trace is not valid JSON")
	}
}
