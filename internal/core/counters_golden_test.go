package core

import (
	"bytes"
	"fmt"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/obs"
)

// TestCampaignCountersGolden pins the campaign telemetry of fixed-seed
// race, deadlock and atomicity analyses and of FuzzSet campaigns over
// registry models: every CampaignMetrics counter, the deterministic gauges
// and both histograms (enabled_threads, steps_to_race). Wall time is the one
// nondeterministic metric and is left out. Regenerate with
// -update-engine-goldens, as for the engine goldens.
func TestCampaignCountersGolden(t *testing.T) {
	fuzzSet := func(name string) func(Options) {
		b := bench.MustByName(name)
		return func(o Options) {
			o.MaxSteps = b.MaxSteps
			FuzzSet(b.New(), DetectPotentialRaces(b.New(), Options{Seed: 3}), o)
		}
	}
	cases := []struct {
		name string
		seed int64
		run  func(Options)
	}{
		{"race figure1 s7", 7, func(o Options) { Analyze(bench.Figure1(), o) }},
		{"race figure2 s11", 11, func(o Options) { Analyze(bench.Figure2(5), o) }},
		{"deadlock abba s5", 5, func(o Options) { AnalyzeDeadlocks(goldenAbba(), o) }},
		{"atomicity weblech s8", 8, func(o Options) { AnalyzeAtomicity(bench.MustByName("weblech").New(), o) }},
		{"atomicity lostupdate s8", 8, func(o Options) { AnalyzeAtomicity(goldenLostUpdate(), o) }},
		{"fuzzset figure1 s3", 3, fuzzSet("figure1")},
		{"fuzzset vector s3", 3, fuzzSet("vector")},
		{"fuzzset hashset s3", 3, fuzzSet("hashset")},
	}
	var out bytes.Buffer
	for _, tc := range cases {
		campaign := obs.NewCampaignMetrics()
		o := Options{Seed: tc.seed, Phase1Trials: 3, Phase2Trials: 20}
		o.Metrics = campaign
		tc.run(o)
		fmt.Fprintf(&out, "== %s\n", tc.name)
		writeCounters(&out, campaign.Snapshot())
	}
	goldenCheck(t, "counters_campaign.txt", out.Bytes())
}

// writeCounters renders a campaign snapshot without its wall-clock gauge.
func writeCounters(b *bytes.Buffer, s obs.Snapshot) {
	for _, c := range s.Counters {
		fmt.Fprintf(b, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		if g.Name != "wall.seconds" {
			fmt.Fprintf(b, "%s %g\n", g.Name, g.Value)
		}
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(b, "%s bounds=%v counts=%v count=%d sum=%g min=%g max=%g\n",
			h.Name, h.Hist.Bounds, h.Hist.Counts, h.Hist.Count, h.Hist.Sum, h.Hist.Min, h.Hist.Max)
	}
}
