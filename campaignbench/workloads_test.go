package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.golden")

// testSize is about a fiftieth of fullSize.
var testSize = size{table1Trials: 2, phase1Trials: 12, programs: 1, progenTrials: 2, fleetBudget: 120}

const testSeed = 1

// TestWorkloadDigests runs one pass of every workload at testSize at width
// 1, at width 2, and traced at width 2. The three verdict digests must be
// equal, and equal to the golden pinned for testSeed: a change that alters
// any verdict byte fails here by name instead of silently shifting the
// benchmark's throughput.
func TestWorkloadDigests(t *testing.T) {
	got := map[string]string{}
	for _, name := range workloadNames {
		w, _ := newWorkload(name, testSize)
		if err := w.setup(testSeed); err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		digest := func(width int, l *ledger) string {
			out, err := w.pass(testSeed, width, l)
			if err != nil {
				t.Fatalf("%s: pass at width %d: %v", name, width, err)
			}
			if out.execs <= 0 || out.ops <= 0 {
				t.Fatalf("%s: pass at width %d counted %d executions and %d ops", name, width, out.execs, out.ops)
			}
			return out.digest
		}
		w1, wN := digest(1, nil), digest(2, nil)
		l := newLedger(name)
		traced := digest(2, l)
		if w1 != wN {
			t.Errorf("%s: width-1 digest %s differs from width-2 digest %s", name, w1, wN)
		}
		if traced != wN {
			t.Errorf("%s: traced digest %s differs from untraced %s", name, traced, wN)
		}
		if len(l.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", name)
		}
		got[name] = wN
	}

	path := filepath.Join("testdata", "digests.golden")
	var b strings.Builder
	for _, name := range workloadNames {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if string(want) != b.String() {
		t.Errorf("verdict digests changed at seed %d:\n got:\n%s want:\n%s", testSeed, b.String(), want)
	}
}

// TestLedgerMetrics checks that a traced ledger prints every per-layer
// metric exactly once, in perLayer order.
func TestLedgerMetrics(t *testing.T) {
	ms := newLedger("table1").metrics()
	if len(ms) != len(perLayer) {
		t.Fatalf("metrics() returned %d metrics, want %d", len(ms), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range ms {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("metric %d is %s %s, want %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestBenchmarkJSON holds the repository's BENCHMARK.json to the workloads
// and metrics this command runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	list := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			out = append(out, d.name+" "+d.unit+" "+d.better)
		}
		sort.Strings(out)
		return out
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s has bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if got, want := list(e2e), list(endToEnd); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json end_to_end\n got %v\nwant %v", got, want)
	}
	if got, want := list(layers), list(perLayer); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json per_layer\n got %v\nwant %v", got, want)
	}
}
