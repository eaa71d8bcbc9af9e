package benchsnap

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMeasureCalibratesAndCountsAllocs(t *testing.T) {
	calls := 0
	res := Measure("alloc3", 20*time.Millisecond, func() {
		calls++
		sink = make([]byte, 64)
		sink = append(sink, make([]byte, 128)...)
		time.Sleep(100 * time.Microsecond)
	})
	if res.Iters < 2 {
		t.Fatalf("calibration never grew: %+v", res)
	}
	// The warm-up call runs outside the timed batch.
	if calls != res.Iters+1 && calls < res.Iters {
		t.Fatalf("calls=%d vs iters=%d", calls, res.Iters)
	}
	if res.NsPerOp < float64(50*time.Microsecond) {
		t.Fatalf("ns/op %f implausibly small for a 100µs sleep", res.NsPerOp)
	}
	// Two allocations per op, with slack for runtime/timer internals.
	if res.AllocsPerOp < 2 || res.AllocsPerOp > 64 {
		t.Fatalf("allocs/op = %f, want ~2", res.AllocsPerOp)
	}
}

var sink []byte

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	s := &Snapshot{
		Schema: SchemaVersion, Suite: "x", Description: "d", Benchtime: "1ms",
		Results: []Result{{Name: "a", Iters: 3, NsPerOp: 10, AllocsPerOp: 2,
			Metrics: map[string]float64{"m": 1}}},
	}
	s.Stamp(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	if s.Date != "2026-08-08" {
		t.Fatalf("Date = %q", s.Date)
	}
	if s.Host.Cores <= 0 || s.Host.GOOS == "" || s.Host.CPU == "" {
		t.Fatalf("host not described: %+v", s.Host)
	}
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	// The artifact is plain indented JSON (diff-reviewable).
	data, _ := os.ReadFile(path)
	if !json.Valid(data) || !strings.HasPrefix(string(data), "{\n  \"schema\": 1,") {
		t.Fatalf("artifact not indented JSON:\n%s", data)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Suite != "x" || len(got.Results) != 1 || got.Results[0].Metrics["m"] != 1 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

func TestLoadRejectsOversizedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_big.json")
	// Valid JSON, so only the size cap can refuse it.
	big := `{"suite":"x"` + strings.Repeat(" ", maxSnapshotBytes) + `}`
	if err := os.WriteFile(path, []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "larger than") {
		t.Fatalf("Load of a %d-byte snapshot: err = %v, want the size-cap error", len(big), err)
	}
}

// FuzzLoad feeds arbitrary bytes to the snapshot decoder: it must return a
// snapshot or an error, never panic, and a decoded snapshot must re-encode.
func FuzzLoad(f *testing.F) {
	for _, name := range []string{"BENCH_sched.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":1,"results":[{"name":"a","nsPerOp":1e400}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := json.Marshal(s); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
	})
}

func base() *Snapshot {
	return &Snapshot{Schema: SchemaVersion, Suite: "sched", Results: []Result{
		{Name: "a", NsPerOp: 1000, AllocsPerOp: 100},
		{Name: "b", NsPerOp: 2000, AllocsPerOp: 1000},
	}}
}

func TestCompareClean(t *testing.T) {
	cur := base()
	warns, fails := Compare(cur, base(), DefaultCheckOptions())
	if len(warns) != 0 || len(fails) != 0 {
		t.Fatalf("identical snapshots flagged: warns=%v fails=%v", warns, fails)
	}
}

func TestCompareAllocRegressionIsHardFailure(t *testing.T) {
	cur := base()
	cur.Results[1].AllocsPerOp = 1200 // +20% > 10% tolerance + 64 slack
	warns, fails := Compare(cur, base(), DefaultCheckOptions())
	if len(fails) != 1 || !strings.Contains(fails[0], "b: allocs/op 1200") {
		t.Fatalf("alloc regression not a failure: warns=%v fails=%v", warns, fails)
	}
	// Within tolerance+slack passes.
	cur.Results[1].AllocsPerOp = 1100
	if _, fails := Compare(cur, base(), DefaultCheckOptions()); len(fails) != 0 {
		t.Fatalf("in-tolerance allocs failed: %v", fails)
	}
	// Slack protects near-zero baselines from off-by-a-few noise.
	cur = base()
	cur.Results[0].AllocsPerOp = 130
	if _, fails := Compare(cur, base(), DefaultCheckOptions()); len(fails) != 0 {
		t.Fatalf("slack did not absorb small absolute growth: %v", fails)
	}
}

// TestCompareZeroThresholdsAreHonoured: an explicit zero is a real setting,
// not "use the default" — a slack of 0 must catch one extra allocation on a
// zero-alloc baseline that the default slack of 64 would absorb.
func TestCompareZeroThresholdsAreHonoured(t *testing.T) {
	b := &Snapshot{Schema: SchemaVersion, Suite: "sched", Results: []Result{{Name: "z", NsPerOp: 100, AllocsPerOp: 0}}}
	cur := &Snapshot{Schema: SchemaVersion, Suite: "sched", Results: []Result{{Name: "z", NsPerOp: 101, AllocsPerOp: 1}}}
	if _, fails := Compare(cur, b, DefaultCheckOptions()); len(fails) != 0 {
		t.Fatalf("default slack should absorb one allocation: %v", fails)
	}
	strict := DefaultCheckOptions()
	strict.AllocSlack = 0
	if _, fails := Compare(cur, b, strict); len(fails) != 1 || !strings.Contains(fails[0], "z: allocs/op 1") {
		t.Fatalf("slack 0 let a 0→1 allocs/op growth through: %v", fails)
	}
	strict.NsTolerance = 0
	if warns, _ := Compare(cur, b, strict); len(warns) != 1 || !strings.Contains(warns[0], "z: ns/op 101") {
		t.Fatalf("tolerance 0 did not warn on 1%% ns/op drift: %v", warns)
	}
}

func TestCompareNsDriftOnlyWarns(t *testing.T) {
	cur := base()
	cur.Results[0].NsPerOp = 10000 // 10x
	warns, fails := Compare(cur, base(), DefaultCheckOptions())
	if len(fails) != 0 {
		t.Fatalf("wall-clock drift hard-failed: %v", fails)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "10.0x baseline") {
		t.Fatalf("no drift warning: %v", warns)
	}
}

func TestCompareMissingAndNewBenchmarks(t *testing.T) {
	cur := base()
	cur.Results = cur.Results[:1]
	cur.Results = append(cur.Results, Result{Name: "c", NsPerOp: 1, AllocsPerOp: 1})
	warns, fails := Compare(cur, base(), DefaultCheckOptions())
	if len(fails) != 1 || !strings.Contains(fails[0], `"b" in baseline but not measured`) {
		t.Fatalf("disappeared benchmark not a failure: %v", fails)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], `"c" has no baseline`) {
		t.Fatalf("new benchmark not warned: %v", warns)
	}
}

func TestCompareSchemaMismatchFails(t *testing.T) {
	cur := base()
	b := base()
	b.Schema = SchemaVersion + 1
	_, fails := Compare(cur, b, DefaultCheckOptions())
	if len(fails) != 1 || !strings.Contains(fails[0], "schema mismatch") {
		t.Fatalf("schema mismatch not failed: %v", fails)
	}
	b = base()
	b.Suite = "parallel"
	if _, fails := Compare(cur, b, DefaultCheckOptions()); len(fails) != 1 {
		t.Fatalf("suite mismatch not failed: %v", fails)
	}
}

// TestSchedSuiteShape runs the real sched suite at a tiny benchtime and
// checks the snapshot carries everything the checked-in artifact needs.
func TestSchedSuiteShape(t *testing.T) {
	snap, tl := SchedSuite(SuiteOptions{Benchtime: 5 * time.Millisecond})
	if snap.Schema != SchemaVersion || snap.Suite != "sched" {
		t.Fatalf("header: %+v", snap)
	}
	names := map[string]Result{}
	for _, r := range snap.Results {
		names[r.Name] = r
		if r.NsPerOp <= 0 || r.Iters <= 0 {
			t.Fatalf("unmeasured result %+v", r)
		}
		if r.Metrics["steps_per_op"] <= 0 || r.Metrics["ns_per_step"] <= 0 {
			t.Fatalf("missing step metrics: %+v", r)
		}
	}
	for _, want := range []string{
		"grant_serial/ops=256", "grant_ping/rounds=64",
		"grant_fanout/threads=8,ops=16", "grant_serial_profiled/ops=256",
	} {
		if _, ok := names[want]; !ok {
			t.Fatalf("suite missing %q: %v", want, snap.Results)
		}
	}
	if snap.SchedSummary == nil || snap.SchedSummary.Trials != 60 || snap.SchedSummary.Grants == 0 {
		t.Fatalf("latency pass missing or wrong size: %+v", snap.SchedSummary)
	}
	hasLatency := false
	for _, op := range snap.SchedSummary.Ops {
		if op.Count > 0 && op.Service.P99 > 0 {
			hasLatency = true
		}
	}
	if !hasLatency {
		t.Fatal("sched summary has no per-op-kind quantiles")
	}
	if tl == nil || len(tl.Spans) == 0 {
		t.Fatal("no sample timeline for the CI artifact")
	}
}
