package harness

import (
	"strings"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/obs"
)

func TestRunBenchmarkFigure1Row(t *testing.T) {
	b := bench.MustByName("figure1")
	row := RunBenchmark(b, Options{Seed: 5, Phase2Trials: 40, BaselineTrials: 40, TimingRuns: 2})
	if row.Potential < 2 {
		t.Fatalf("potential = %d", row.Potential)
	}
	if row.Real != 1 {
		t.Fatalf("real = %d, want 1", row.Real)
	}
	if row.ExceptionPairs != 1 {
		t.Fatalf("exception pairs = %d, want 1", row.ExceptionPairs)
	}
	if row.Probability < 0.9 {
		t.Fatalf("probability = %.2f", row.Probability)
	}
	if row.NormalSec <= 0 || row.HybridSec <= 0 || row.RFSec <= 0 {
		t.Fatalf("timings not measured: %+v", row)
	}
	if row.SimpleExceptions < 0 || row.SimpleExceptions > 40 {
		t.Fatalf("baseline exceptions out of range: %d", row.SimpleExceptions)
	}
}

// TestRowCampaignColumns: the FirstRace and Traces columns, read from the
// report, agree with a campaign aggregator that saw every run record.
func TestRowCampaignColumns(t *testing.T) {
	for _, name := range []string{"figure1", "figure2"} {
		metrics := obs.NewCampaignMetrics()
		row := RunBenchmark(bench.MustByName(name), Options{
			Seed: 3, Phase2Trials: 20, BaselineTrials: 1, TimingRuns: 1,
			Probes: core.Probes{Sink: metrics, TraceDir: t.TempDir()},
		})
		snap := metrics.Snapshot()
		var firstRun float64
		var captured int64
		for _, g := range snap.Gauges {
			if g.Name == "race.first_run" {
				firstRun = g.Value
			}
		}
		for _, c := range snap.Counters {
			if c.Name == "traces.captured" {
				captured = c.Value
			}
		}
		if float64(row.FirstRaceRun) != firstRun || row.TraceCaptures != captured {
			t.Errorf("%s: FirstRace %d, Traces %d; aggregator saw %v, %d", name,
				row.FirstRaceRun, row.TraceCaptures, firstRun, captured)
		}
		if row.FirstRaceRun < 0 || row.TraceCaptures != int64(row.Real) {
			t.Errorf("%s: FirstRace %d, Traces %d for %d real pair(s)", name, row.FirstRaceRun, row.TraceCaptures, row.Real)
		}
	}
}

func TestFigure2BaselineAlmostNeverThrows(t *testing.T) {
	// §3.2: with a long untracked prefix, undirected testing essentially
	// never reaches ERROR, while RaceFuzzer reaches it half the time.
	b := bench.MustByName("figure2")
	row := RunBenchmark(b, Options{Seed: 31, Phase2Trials: 40, BaselineTrials: 60, TimingRuns: 1})
	if row.SimpleExceptions > 3 {
		t.Fatalf("undirected scheduler threw in %d/60 runs, want ≈0", row.SimpleExceptions)
	}
	if row.ExceptionPairs != 1 {
		t.Fatalf("RaceFuzzer exception pairs = %d, want 1", row.ExceptionPairs)
	}
}

func TestRenderTables(t *testing.T) {
	rows := RunTable1([]string{"figure1", "figure2"}, Options{
		Seed: 9, Phase2Trials: 20, BaselineTrials: 20, TimingRuns: 1,
	})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := RenderTable1(rows)
	for _, want := range []string{"figure1", "figure2", "Hybrid#", "RF(real)", "Prob"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	paper := RenderPaperTable(rows)
	if !strings.Contains(paper, "SLOC") || !strings.Contains(paper, "Known") {
		t.Fatalf("paper table missing columns:\n%s", paper)
	}
}

func TestFigure2SweepShape(t *testing.T) {
	points := Figure2Sweep([]int{2, 60}, 60, 21)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.RFProb < 0.99 {
			t.Fatalf("prefix %d: RF probability %.2f, want 1.0", p.PrefixLen, p.RFProb)
		}
		if p.RFErrorFrac < 0.25 || p.RFErrorFrac > 0.75 {
			t.Fatalf("prefix %d: ERROR fraction %.2f, want ≈0.5", p.PrefixLen, p.RFErrorFrac)
		}
	}
	// The baselines must decay with prefix length; at 60 they are near zero.
	if points[1].SimpleProb > 0.15 {
		t.Fatalf("simple random probability %.2f at prefix 60, want ≈0", points[1].SimpleProb)
	}
	if points[0].SimpleProb < points[1].SimpleProb {
		t.Fatalf("simple random probability did not decay: %.2f -> %.2f",
			points[0].SimpleProb, points[1].SimpleProb)
	}
	out := RenderFigure2(points)
	if !strings.Contains(out, "PrefixLen") || !strings.Contains(out, "RaceFuzzer") {
		t.Fatalf("sweep render missing columns:\n%s", out)
	}
}

func TestVerifyPassesOnHealthyRow(t *testing.T) {
	b := bench.MustByName("figure2")
	row := RunBenchmark(b, Options{Seed: 2, Phase2Trials: 30, BaselineTrials: 20, TimingRuns: 1})
	if v := Verify(b, row); len(v) != 0 {
		t.Fatalf("violations on healthy row: %v", v)
	}
	out, ok := VerifyAll([]Row{row})
	if !ok || !strings.Contains(out, "PASS") {
		t.Fatalf("VerifyAll: ok=%v out=%q", ok, out)
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	b := bench.MustByName("figure2")
	bad := Row{Name: "figure2", Potential: 0, Real: 5, ExceptionPairs: 0, Probability: 0}
	v := Verify(b, bad)
	if len(v) < 3 {
		t.Fatalf("violations = %v, want several", v)
	}
	out, ok := VerifyAll([]Row{bad})
	if ok || !strings.Contains(out, "FAIL") {
		t.Fatalf("VerifyAll accepted a bad row: %q", out)
	}
	if _, ok := VerifyAll([]Row{{Name: "not-a-benchmark"}}); ok {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCSVRendering(t *testing.T) {
	rows := RunTable1([]string{"figure1"}, Options{Seed: 4, Phase2Trials: 15, BaselineTrials: 10, TimingRuns: 1})
	csv := CSVTable1(rows)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "program,") || !strings.HasPrefix(lines[1], "figure1,") {
		t.Fatalf("csv = %q", csv)
	}
	points := Figure2Sweep([]int{5}, 20, 8)
	fcsv := CSVFigure2(points)
	if !strings.HasPrefix(fcsv, "prefix_len,") || !strings.Contains(fcsv, "\n5,") {
		t.Fatalf("figure2 csv = %q", fcsv)
	}
}

func TestNoiseSweepRobustness(t *testing.T) {
	points := NoiseSweep([]int{0, 6}, 60, 33)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.RFProb < 0.99 {
			t.Fatalf("bystanders %d: RF probability %.2f — directed testing must be noise-immune", p.Bystanders, p.RFProb)
		}
		if p.RFErrorFrac < 0.25 || p.RFErrorFrac > 0.75 {
			t.Fatalf("bystanders %d: ERROR fraction %.2f, want ≈0.5", p.Bystanders, p.RFErrorFrac)
		}
	}
	if points[1].SimpleProb > points[0].SimpleProb+0.05 {
		t.Fatalf("baseline improved under noise: %.2f -> %.2f", points[0].SimpleProb, points[1].SimpleProb)
	}
	if !strings.Contains(RenderNoise(points), "Bystanders") {
		t.Fatal("render missing header")
	}
}
