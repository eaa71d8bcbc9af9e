package core

import (
	"sync"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/obs"
)

// Golden tests for per-trial seed derivation. Stored corpora, archived
// witness recordings and the regress mode all assume a trial's seed is a
// stable pure function of (base seed, target index, trial index) — changing
// any constant below silently invalidates every saved artifact, so the
// constants are pinned here as literals.

func TestPairSeedGoldenValues(t *testing.T) {
	cases := []struct {
		base   int64
		pi, i  int
		expect int64
	}{
		{0, 0, 0, 1},
		{42, 0, 0, 43},
		{42, 0, 1, 7_962},
		{42, 1, 0, 1_000_046},
		{42, 2, 3, 2_023_806},
		{21, 7_000_000, 0, 7_000_021_000_022},          // deadlock salt, cycle 0
		{17, 9_000_001, 2, 9_000_028_015_859},          // atomicity salt, target 1
		{-5, 0, 0, -4},                                 // negative bases stay linear
		{1 << 40, 1, 1, 1_099_511_627_776 + 1_007_923}, // large bases don't collide the salts
	}
	for _, c := range cases {
		if got := pairSeed(c.base, c.pi, c.i); got != c.expect {
			t.Errorf("pairSeed(%d, %d, %d) = %d, want %d", c.base, c.pi, c.i, got, c.expect)
		}
	}
}

// seedSink captures every emitted record for offline seed inspection.
type seedSink struct {
	mu   sync.Mutex
	recs []obs.RunRecord
}

func (s *seedSink) Emit(rec obs.RunRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
}

// checkSeeds asserts every captured record's seed matches the published
// derivation: phase 1 uses base+trial, phase 2 uses pairSeed with the
// pipeline's salt added to the target index.
func checkSeeds(t *testing.T, recs []obs.RunRecord, base int64, salt int) {
	t.Helper()
	if len(recs) == 0 {
		t.Fatal("no records emitted")
	}
	p1, p2 := 0, 0
	for _, r := range recs {
		switch r.Phase {
		case 1:
			p1++
			if want := base + int64(r.Trial); r.Seed != want {
				t.Fatalf("phase-1 trial %d: seed %d, want %d", r.Trial, r.Seed, want)
			}
		case 2:
			p2++
			want := base + int64(r.PairIndex+salt)*1_000_003 + int64(r.Trial)*7_919 + 1
			if r.Seed != want {
				t.Fatalf("phase-2 %s target %d trial %d: seed %d, want %d",
					r.Kind, r.PairIndex, r.Trial, r.Seed, want)
			}
		default:
			t.Fatalf("record with phase %d", r.Phase)
		}
	}
	if p1 == 0 || p2 == 0 {
		t.Fatalf("phase coverage: %d phase-1, %d phase-2 records", p1, p2)
	}
}

func TestRacePipelineSeedDerivationGolden(t *testing.T) {
	sink := &seedSink{}
	Analyze(bench.Figure1(), Options{Seed: 42, Phase1Trials: 3, Phase2Trials: 4, Probes: Probes{Sink: sink}})
	checkSeeds(t, sink.recs, 42, 0)
}

func TestDeadlockPipelineSeedDerivationGolden(t *testing.T) {
	sink := &seedSink{}
	AnalyzeDeadlocks(abbaProgram(), Options{Seed: 21, Phase1Trials: 3, Phase2Trials: 4, Probes: Probes{Sink: sink}})
	checkSeeds(t, sink.recs, 21, 7_000_000)
}

func TestAtomicityPipelineSeedDerivationGolden(t *testing.T) {
	sink := &seedSink{}
	AnalyzeAtomicity(lostUpdateProgram(nil), Options{Seed: 17, Phase1Trials: 3, Phase2Trials: 4, Probes: Probes{Sink: sink}})
	checkSeeds(t, sink.recs, 17, 9_000_000)
}
