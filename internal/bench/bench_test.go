package bench_test

import (
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/sched"
)

// TestRegistryComplete pins the Table 1 roster: every benchmark program of
// the paper's evaluation (plus the two figure examples) has a model.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"figure1", "figure2",
		"moldyn", "raytracer", "montecarlo", "sor",
		"cache4j", "hedc", "weblech", "jspider", "jigsaw",
		"vector", "arraylist", "linkedlist", "hashset", "treeset",
	}
	for _, name := range want {
		if _, ok := bench.ByName(name); !ok {
			t.Errorf("missing benchmark %q", name)
		}
	}
	if len(bench.All()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(bench.All()), len(want), bench.Names())
	}
	if _, ok := bench.ByName("nonexistent"); ok {
		t.Error("ByName found a nonexistent benchmark")
	}
}

// TestBenchmarksTerminate runs every model under several policies/seeds and
// checks termination without deadlock or abort (exceptions are allowed —
// some models throw by design).
func TestBenchmarksTerminate(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			policies := []func() sched.Policy{
				func() sched.Policy { return sched.NewRandomPolicy() },
				func() sched.Policy { return sched.NewRunToBlockPolicy(0.02) },
				func() sched.Policy { return sched.SequentialPolicy{} },
			}
			for pi, mk := range policies {
				for seed := int64(0); seed < 5; seed++ {
					res := sched.Run(b.New(), sched.Config{Seed: seed, Policy: mk(), MaxSteps: b.MaxSteps})
					if res.Deadlock != nil {
						t.Fatalf("policy %d seed %d: deadlock: %v", pi, seed, res.Deadlock)
					}
					if res.Aborted {
						t.Fatalf("policy %d seed %d: aborted after %d steps", pi, seed, res.Steps)
					}
				}
			}
		})
	}
}

// TestBenchmarkExpectations is the heart of the reproduction: the full
// two-phase pipeline on every model must land inside the Expect bounds —
// hybrid over-reports (potential ≥ real), RaceFuzzer confirms exactly the
// designed real races, and harmful pairs throw.
func TestBenchmarkExpectations(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 25
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			opts := core.Options{
				Seed:         12345,
				Phase1Trials: b.Phase1Trials,
				Phase2Trials: trials,
				MaxSteps:     b.MaxSteps,
			}
			rep := core.Analyze(b.New(), opts)
			e := b.Expect

			if got := len(rep.Potential); got < e.MinPotential {
				t.Errorf("potential pairs = %d, want ≥ %d (%v)", got, e.MinPotential, rep.Potential)
			}
			real := rep.RealCount()
			if real < e.MinReal {
				t.Errorf("real pairs = %d, want ≥ %d; reports:\n%s", real, e.MinReal, dumpPairs(rep))
			}
			if e.MaxReal >= 0 && real > e.MaxReal {
				t.Errorf("real pairs = %d, want ≤ %d; reports:\n%s", real, e.MaxReal, dumpPairs(rep))
			}
			if real > len(rep.Potential) {
				t.Errorf("real (%d) exceeds potential (%d) — impossible", real, len(rep.Potential))
			}
			exc := rep.ExceptionPairCount()
			if exc < e.MinExceptionPairs {
				t.Errorf("exception pairs = %d, want ≥ %d; reports:\n%s", exc, e.MinExceptionPairs, dumpPairs(rep))
			}
			if e.MaxExceptionPairs >= 0 && exc > e.MaxExceptionPairs {
				t.Errorf("exception pairs = %d, want ≤ %d; reports:\n%s", exc, e.MaxExceptionPairs, dumpPairs(rep))
			}
			if real > 0 {
				if p := rep.MeanProbability(); p < e.MinProbability {
					t.Errorf("mean hit probability = %.2f, want ≥ %.2f", p, e.MinProbability)
				}
			}
		})
	}
}

func dumpPairs(rep *core.Report) string {
	s := ""
	for _, p := range rep.Pairs {
		s += "  " + p.String() + "\n"
	}
	return s
}

// TestReplayAcrossBenchmarks: for every benchmark with a confirmed race,
// replaying the recorded FirstRaceSeed must recreate the race.
func TestReplayAcrossBenchmarks(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		if b.Expect.MinReal == 0 {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			opts := core.Options{Seed: 777, Phase1Trials: b.Phase1Trials, Phase2Trials: 40, MaxSteps: b.MaxSteps}
			pairs := core.DetectPotentialRaces(b.New(), opts)
			for i, pair := range pairs {
				pr := core.FuzzPair(b.New(), pair, i, opts)
				if !pr.IsReal {
					continue
				}
				run := core.FuzzRun(b.New(), pair, pr.FirstRaceSeed, opts)
				if !run.RaceCreated {
					t.Fatalf("replay of %v seed %d did not recreate the race", pair, pr.FirstRaceSeed)
				}
				return // one replayed race per benchmark suffices
			}
			t.Fatalf("no real pair found to replay (potential: %v)", pairs)
		})
	}
}
