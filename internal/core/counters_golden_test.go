package core

import (
	"bytes"
	"fmt"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/schedprof"
)

// TestCampaignCountersGolden pins the telemetry -metrics prints for
// fixed-seed race, deadlock and atomicity analyses over registry models:
// every CampaignMetrics counter, its deterministic gauges and its
// steps_to_race histogram, then the scheduler table (schedprof.Summary):
// rounds, grants by op kind, switches, policy actions by kind and the
// enabled-set mean and max. Wall time is the one nondeterministic metric
// and is left out. Regenerate with -update-engine-goldens, as for the
// engine goldens.
func TestCampaignCountersGolden(t *testing.T) {
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
	}
	var out bytes.Buffer
	for _, tc := range cases {
		campaign, prof := obs.NewCampaignMetrics(), schedprof.NewCollector()
		tc.run(Options{Seed: tc.seed, Phase1Trials: 3, Phase2Trials: 20, Probes: Probes{Sink: campaign, Prof: prof}})
		fmt.Fprintf(&out, "== %s\n", tc.name)
		writeCounters(&out, campaign.Snapshot())
		fmt.Fprintf(&out, "-- scheduler\n")
		writeCounters(&out, prof.Summary().Snapshot())
	}
	goldenCheck(t, "counters_campaign.txt", out.Bytes())
}

// writeCounters renders a snapshot without its wall-clock gauge.
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
