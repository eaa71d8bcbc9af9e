package main

import (
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
)

// TestRealRaceMatchesPolicy: a replay prints its race lines from the
// recording's race actions, and they must read exactly as the live policy's
// findings of the same run.
func TestRealRaceMatchesPolicy(t *testing.T) {
	for _, name := range []string{"figure2", "weblech"} {
		b, _ := bench.ByName(name)
		o := core.Options{Label: b.Name, MaxSteps: b.MaxSteps}
		pair := core.DetectPotentialRaces(b.New(), core.Options{Seed: 1, Phase1Trials: b.Phase1Trials, MaxSteps: b.MaxSteps})[0]
		for _, seed := range []int64{2, 3} {
			run := core.FuzzRun(b.New(), pair, seed, o)
			_, _, rec := core.Record(b.New(), core.NewRaceTarget(pair), seed, o)
			var got []string
			for _, a := range rec.Actions() {
				if a.Kind == "race" {
					got = append(got, realRace(a).String())
				}
			}
			if len(got) != len(run.Races) || len(got) == 0 {
				t.Fatalf("%s seed %d: %d race actions, %d policy races", name, seed, len(got), len(run.Races))
			}
			for i, r := range run.Races {
				if got[i] != r.String() {
					t.Fatalf("%s seed %d race %d:\n  replay: %s\n  policy: %s", name, seed, i, got[i], r)
				}
			}
		}
	}
}
