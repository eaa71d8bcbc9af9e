package benchsnap

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadRejectsOversizedSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_big.json")
	// Valid JSON, so only the size cap can refuse it.
	big := `{"schema":1` + strings.Repeat(" ", maxSnapshotBytes) + `}`
	if err := os.WriteFile(path, []byte(big), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "larger than") {
		t.Fatalf("Load of a %d-byte snapshot: err = %v, want the size-cap error", len(big), err)
	}
}

// TestLoadCheckedInBaseline: the baseline CI compares against decodes, and
// every workload of BENCHMARK.json has a width and an allocs_per_trial.
func TestLoadCheckedInBaseline(t *testing.T) {
	s, err := Load(filepath.Join("..", "..", "BENCH_campaign.json"))
	if err != nil {
		t.Fatal(err)
	}
	margins, failures, err := Compare(s, s)
	if err != nil || len(failures) != 0 || len(margins) != len(benchmarkJSON(t).Workloads) {
		t.Fatalf("baseline against itself: margins %v, failures %v, err %v", margins, failures, err)
	}
}

// FuzzLoad feeds arbitrary bytes to the snapshot decoder: it must return a
// snapshot or an error, never panic, and a decoded snapshot holds only
// finite, non-negative metrics at a width of at least 1.
func FuzzLoad(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_campaign.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"schema":1,"runs":[{"workload":"a","width":1,"metrics":[{"name":"allocs_per_trial","value":1e400}]}]}`))
	f.Add([]byte(`{"schema":1,"runs":[{"workload":"a","width":2,"metrics":[{"name":"allocs_per_trial","value":-1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range s.Runs {
			if r.Width < 1 {
				t.Fatalf("%s: accepted width %d", r.Workload, r.Width)
			}
			for _, m := range r.Metrics {
				if m.Value < 0 || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
					t.Fatalf("%s: accepted %s = %v", r.Workload, m.Name, m.Value)
				}
			}
		}
		Compare(s, s)
	})
}

// TestAllocsBoundMatchesBenchmark: the gate's bound is the one the
// benchmark declares, not a second number kept by hand.
func TestAllocsBoundMatchesBenchmark(t *testing.T) {
	for _, m := range benchmarkJSON(t).EndToEnd {
		if m.Name == "allocs_per_trial" {
			if m.Bound != AllocsBound {
				t.Fatalf("AllocsBound = %v, BENCHMARK.json bound = %v", AllocsBound, m.Bound)
			}
			return
		}
	}
	t.Fatal("BENCHMARK.json declares no allocs_per_trial")
}

type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func benchmarkJSON(t *testing.T) benchmarkDecl {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d benchmarkDecl
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// snap builds a snapshot with one run per "workload=allocs" argument, all
// at width 2.
func snap(t *testing.T, runs ...string) *Snapshot {
	t.Helper()
	var js []string
	for _, r := range runs {
		name, allocs, _ := strings.Cut(r, "=")
		js = append(js, `{"workload":"`+name+`","width":2,"metrics":[{"name":"allocs_per_trial","value":`+allocs+`}]}`)
	}
	s, err := decode(strings.NewReader(`{"schema":1,"runs":[` + strings.Join(js, ",") + `]}`))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// compareCase is one Compare of cur against the baseline table1=100,
// fleet=200.
type compareCase struct {
	name    string
	cur     []string
	edit    func(*Snapshot)
	fails   []string // a substring of each failure, in order
	refused bool
}

func runCompare(t *testing.T, cases []compareCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := snap(t, tc.cur...)
			if tc.edit != nil {
				tc.edit(cur)
			}
			margins, failures, err := Compare(snap(t, "table1=100", "fleet=200"), cur)
			if (err != nil) != tc.refused {
				t.Fatalf("err = %v, want refused %v", err, tc.refused)
			}
			if len(failures) != len(tc.fails) {
				t.Fatalf("failures %q, want %d", failures, len(tc.fails))
			}
			for i, want := range tc.fails {
				if !strings.Contains(failures[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, failures[i], want)
				}
			}
			if !tc.refused && len(tc.fails) == 0 && len(margins) != 2 {
				t.Errorf("margins %q, want one per baseline workload", margins)
			}
		})
	}
}

func TestCompareClean(t *testing.T) {
	runCompare(t, []compareCase{
		{name: "identical", cur: []string{"table1=100", "fleet=200"}},
		{name: "within bound", cur: []string{"table1=104.9", "fleet=209.9"}},
		{name: "fewer allocs", cur: []string{"table1=50", "fleet=0"}},
	})
}

func TestCompareAllocRegressionIsHardFailure(t *testing.T) {
	runCompare(t, []compareCase{
		{name: "just over bound", cur: []string{"table1=105.1", "fleet=200"},
			fails: []string{"table1 (width 2): allocs_per_trial 105.10, baseline 100.00, +5.10%"}},
		{name: "every workload over", cur: []string{"table1=106", "fleet=211"},
			fails: []string{"table1 (width 2)", "fleet (width 2)"}},
	})
}

func TestCompareMissingAndNewBenchmarks(t *testing.T) {
	runCompare(t, []compareCase{
		{name: "missing workload", cur: []string{"table1=100"}, fails: []string{"fleet: not measured"}},
		{name: "new workload", cur: []string{"table1=100", "fleet=200", "progen=50"}},
		{name: "no allocs_per_trial", cur: []string{"table1=100", "fleet=200"},
			edit: func(s *Snapshot) { s.Runs[1].Metrics[0].Name = "trials_per_s" }, fails: []string{"fleet: no allocs_per_trial"}},
	})
}

func TestCompareSchemaMismatchFails(t *testing.T) {
	runCompare(t, []compareCase{
		{name: "schema differs", cur: []string{"table1=100", "fleet=200"},
			edit: func(s *Snapshot) { s.Schema = 2 }, fails: []string{"schema 2, baseline schema 1"}},
	})
}

func TestCompareWidthMismatchIsRefused(t *testing.T) {
	runCompare(t, []compareCase{
		{name: "width differs", cur: []string{"table1=100", "fleet=200"},
			edit: func(s *Snapshot) { s.Runs[0].Width = 1 }, refused: true},
		{name: "width differs and over bound", cur: []string{"table1=100", "fleet=300"},
			edit: func(s *Snapshot) { s.Runs[0].Width = 1 }, refused: true},
	})
}
