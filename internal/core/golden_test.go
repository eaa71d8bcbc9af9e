package core

// Engine equivalence goldens: byte-exact pins of the scheduler's observable
// output — directed-pipeline reports, JSONL run logs, and flightrec trace
// recordings (the same bytes witness capture archives) — at fixed seeds.
// They were generated with the pre-optimization channel-based engine and
// prove the allocation-free grant engine reproduces it bit for bit.
//
// Regenerate (ONLY when intentionally changing engine-visible behavior):
//
//	go test ./internal/core -run TestEngineGolden -update-engine-goldens
//
// The model programs live in goldenprogs_test.go and are frozen: their
// CallerStmt labels embed line numbers, so that file must not be edited
// after generation.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/deadlock"
	"racefuzzer/internal/event"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
)

var updateEngineGoldens = flag.Bool("update-engine-goldens", false,
	"rewrite testdata/engine/* from the current engine instead of comparing")

func goldenCheck(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "engine", name)
	if *updateEngineGoldens {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-engine-goldens): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: engine output diverged from pre-change golden (%d bytes got, %d want)\nfirst divergence at byte %d",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// dumpResult renders every deterministic field of a scheduler Result.
func dumpResult(b *bytes.Buffer, res *sched.Result) {
	fmt.Fprintf(b, "name=%q seed=%d steps=%d threads=%d locks=%d locations=%d aborted=%v stalls=%d\n",
		res.Name, res.Seed, res.Steps, res.Threads, res.Locks, res.Locations, res.Aborted, res.PolicyStalls)
	for _, ex := range res.Exceptions {
		fmt.Fprintf(b, "exception: %s\n", ex)
	}
	if res.Deadlock != nil {
		fmt.Fprintf(b, "%s\n", res.Deadlock)
	}
}

func dumpRaceReport(rep *Report) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "potential=%d\n", len(rep.Potential))
	for _, p := range rep.Potential {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	for _, pr := range rep.Pairs {
		fmt.Fprintf(&b, "%s\n", pr.String())
		fmt.Fprintf(&b, "  firstRaceTrial=%d firstRaceSeed=%d firstExcTrial=%d firstExcSeed=%d deadlockRuns=%d totalSteps=%d\n",
			pr.FirstRaceTrial, pr.FirstRaceSeed, pr.FirstExceptionTrial, pr.FirstExceptionSeed,
			pr.DeadlockRuns, pr.TotalSteps)
	}
	fmt.Fprintf(&b, "real=%d\n", rep.RealCount())
	return b.Bytes()
}

// TestEngineGoldenRace pins the full race pipeline on the paper's figures:
// the report text and the JSONL run log at fixed seeds.
func TestEngineGoldenRace(t *testing.T) {
	cases := []struct {
		name string
		prog Program
		seed int64
	}{
		{"figure1_s7", Program(bench.Figure1()), 7},
		{"figure2_s11", Program(bench.Figure2(12)), 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			sink := obs.NewJSONLSink(&log)
			rep := Analyze(tc.prog, Options{
				Seed: tc.seed, Phase1Trials: 3, Phase2Trials: 20,
				Label:  "golden-" + tc.name,
				Probes: Probes{Sink: sink},
			})
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, "report_race_"+tc.name+".txt", dumpRaceReport(rep))
			goldenCheck(t, "runlog_race_"+tc.name+".jsonl", log.Bytes())
		})
	}
}

// TestEngineGoldenRaceTraces pins the witness bytes of race-directed
// recorded runs (the same Save bytes witness auto-capture archives).
func TestEngineGoldenRaceTraces(t *testing.T) {
	for _, seed := range []int64{7, 999, 12345} {
		res, races, rec := Record(Program(bench.Figure1()), newRaceTarget(bench.Fig1PairZ), seed,
			Options{Label: "golden-trace"}.withDefaults())
		var b bytes.Buffer
		fmt.Fprintf(&b, "raceCreated=%v races=%d\n", races > 0, races)
		dumpResult(&b, res)
		goldenCheck(t, fmt.Sprintf("result_race_figure1_s%d.txt", seed), b.Bytes())
		goldenCheck(t, fmt.Sprintf("trace_race_figure1_s%d.jsonl", seed), recordingBytes(t, rec))
	}
}

// TestEngineGoldenDeadlock pins the deadlock pipeline on the frozen ABBA
// program: the directed-trace bytes, the deadlocking Result, and the full
// AnalyzeDeadlocks report.
func TestEngineGoldenDeadlock(t *testing.T) {
	prog := goldenAbba()
	res, _, rec := Record(prog, newLockCycle(deadlock.Cycle{Locks: [2]event.LockID{0, 1}}), 5,
		Options{Label: "golden-abba"}.withDefaults())
	var b bytes.Buffer
	dumpResult(&b, res)
	goldenCheck(t, "result_deadlock_abba_s5.txt", b.Bytes())
	goldenCheck(t, "trace_deadlock_abba_s5.jsonl", recordingBytes(t, rec))

	var out bytes.Buffer
	for _, dr := range AnalyzeDeadlocks(prog, Options{Seed: 5, Phase1Trials: 3, Phase2Trials: 20}) {
		fmt.Fprintf(&out, "%s\n", dr.String())
		fmt.Fprintf(&out, "  firstTrial=%d firstSeed=%d\n", dr.FirstTrial, dr.FirstSeed)
	}
	goldenCheck(t, "report_deadlock_abba_s5.txt", out.Bytes())
}

// TestEngineGoldenAtomicity pins the atomicity pipeline on the frozen
// lost-update program: inferred targets, directed-trace bytes, and the full
// AnalyzeAtomicity report.
func TestEngineGoldenAtomicity(t *testing.T) {
	prog := goldenLostUpdate()
	targets := DetectAtomicityTargets(prog, Options{Seed: 8, Phase1Trials: 3})
	var b bytes.Buffer
	for _, tg := range targets {
		fmt.Fprintf(&b, "target %s..%s interferers=%d\n", tg.First, tg.Second, len(tg.Interferers))
	}
	if len(targets) > 0 {
		res, viols, rec := Record(prog, newAtomicBlock(targets[0]), 8,
			Options{Label: "golden-atom"}.withDefaults())
		fmt.Fprintf(&b, "violations=%d\n", viols)
		dumpResult(&b, res)
		goldenCheck(t, "trace_atom_lostupdate_s8.jsonl", recordingBytes(t, rec))
	}
	goldenCheck(t, "targets_atom_lostupdate_s8.txt", b.Bytes())

	var out bytes.Buffer
	for _, ar := range AnalyzeAtomicity(prog, Options{Seed: 8, Phase1Trials: 3, Phase2Trials: 20}) {
		fmt.Fprintf(&out, "%s\n", ar.String())
		fmt.Fprintf(&out, "  firstTrial=%d firstSeed=%d\n", ar.FirstTrial, ar.FirstSeed)
	}
	goldenCheck(t, "report_atom_lostupdate_s8.txt", out.Bytes())
}

// TestEngineGoldenMixed pins plain scheduler runs of the op-kind-complete
// mixed program (fork/join, reentrant locks, wait/notify/notifyAll,
// interrupts, a throw with a held lock) under random and quantum policies:
// full flightrec bytes — every event, decision, RNG draw count, and policy
// action — plus the Result.
func TestEngineGoldenMixed(t *testing.T) {
	cases := []struct {
		name   string
		policy sched.Policy
		seed   int64
	}{
		{"random_s3", sched.NewRandomPolicy(), 3},
		{"random_s42", sched.NewRandomPolicy(), 42},
		{"quantum_s9", sched.NewQuantumPolicy(3), 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := flightrec.NewRecorder(flightrec.Header{
				Label: "golden-mixed", Policy: tc.policy.Name(), Kind: "golden", Seed: tc.seed,
			})
			res := sched.Run(goldenMixed(), sched.Config{
				Seed: tc.seed, Policy: tc.policy, Name: "golden-mixed", Observers: []sched.Observer{rec},
			})
			rec.Finish(res)
			var b bytes.Buffer
			dumpResult(&b, res)
			goldenCheck(t, "result_mixed_"+tc.name+".txt", b.Bytes())
			goldenCheck(t, "trace_mixed_"+tc.name+".jsonl", recordingBytes(t, rec.Recording()))
		})
	}
}

// TestEngineGoldenPipelineRunLogs pins the three pipelines' JSONL run logs with every phase-2 attachment on (Sink, Corpus, TraceDir,
// PerfDir): the finding verdicts, coverage cells, witness and perf paths
// (temp-dir prefix replaced by $DIR), race counts and steps-to-hit, plus the
// archived witness file names and bytes. Perf timelines hold wall-clock
// samples, so only their file names are pinned.
func TestEngineGoldenPipelineRunLogs(t *testing.T) {
	cases := []struct {
		name string
		run  func(Program, Options)
		prog Program
		seed int64
	}{
		{"race_figure1_s7_capture", func(p Program, o Options) { Analyze(p, o) }, Program(bench.Figure1()), 7},
		{"deadlock_abba_s5", func(p Program, o Options) { AnalyzeDeadlocks(p, o) }, goldenAbba(), 5},
		{"atom_lostupdate_s8", func(p Program, o Options) { AnalyzeAtomicity(p, o) }, goldenLostUpdate(), 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var log bytes.Buffer
			sink := obs.NewJSONLSink(&log)
			tc.run(tc.prog, Options{
				Seed: tc.seed, Phase1Trials: 3, Phase2Trials: 20,
				Label: "golden-" + tc.name, Corpus: corpus.NewStore(),
				Probes: Probes{Sink: sink, TraceDir: filepath.Join(dir, "traces"), PerfDir: filepath.Join(dir, "perf")},
			})
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			goldenCheck(t, "runlog_"+tc.name+".jsonl", bytes.ReplaceAll(log.Bytes(), []byte(dir), []byte("$DIR")))

			var w bytes.Buffer
			for _, sub := range []string{"traces", "perf"} {
				entries, _ := os.ReadDir(filepath.Join(dir, sub))
				for _, e := range entries {
					fmt.Fprintf(&w, "== %s/%s\n", sub, e.Name())
					if sub == "traces" {
						data, err := os.ReadFile(filepath.Join(dir, sub, e.Name()))
						if err != nil {
							t.Fatal(err)
						}
						w.Write(data)
					}
				}
			}
			goldenCheck(t, "witnesses_"+tc.name+".txt", w.Bytes())
		})
	}
}
