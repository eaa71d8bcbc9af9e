package core

import (
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/event"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// TestFirstRaceSeedZeroIsUsable pins the zero-seed sentinel fix: with base
// seed -1, pairSeed(-1, 0, 0) == 0, so the first race-creating trial has the
// perfectly legitimate seed 0. The trial index, not the seed, must signal
// "a race happened".
func TestFirstRaceSeedZeroIsUsable(t *testing.T) {
	if s := pairSeed(-1, 0, 0); s != 0 {
		t.Fatalf("pairSeed(-1,0,0) = %d, test premise broken", s)
	}
	rep := FuzzPair(bench.Figure2(5), bench.Fig2Pair, 0, Options{Seed: -1, Phase2Trials: 5})
	if !rep.IsReal {
		t.Fatalf("figure2 race not confirmed: %v", rep)
	}
	if rep.FirstRaceTrial != 0 {
		t.Fatalf("FirstRaceTrial = %d, want 0", rep.FirstRaceTrial)
	}
	if rep.FirstRaceSeed != 0 {
		t.Fatalf("FirstRaceSeed = %d, want 0", rep.FirstRaceSeed)
	}
	// The seed-0 run must replay to the same outcome.
	run := FuzzRun(bench.Figure2(5), bench.Fig2Pair, 0, Options{})
	if !run.RaceCreated {
		t.Fatal("seed-0 replay did not recreate the race")
	}
}

func TestFirstTrialSentinelWhenNothingHappens(t *testing.T) {
	// Figure 1's x pair is a false alarm: no trial confirms it, so both
	// trial indices stay -1 even though seeds were consumed.
	rep := FuzzPair(bench.Figure1(), bench.Fig1PairX, 0, Options{Seed: 1, Phase2Trials: 10})
	if rep.IsReal {
		t.Fatalf("x pair unexpectedly confirmed: %v", rep)
	}
	if rep.FirstRaceTrial != -1 || rep.FirstExceptionTrial != -1 {
		t.Fatalf("sentinels = %d/%d, want -1/-1", rep.FirstRaceTrial, rep.FirstExceptionTrial)
	}
}

// collectSink records every emitted run record.
type collectSink struct{ recs []obs.RunRecord }

func (c *collectSink) Emit(rec obs.RunRecord) { c.recs = append(c.recs, rec) }

func TestFuzzPairEmitsOneRecordPerTrial(t *testing.T) {
	campaign := obs.NewCampaignMetrics()
	prof := schedprof.NewCollector()
	sink := &collectSink{}
	trials := 8
	rep := FuzzPair(bench.Figure2(5), bench.Fig2Pair, 0, Options{
		Seed: 3, Phase2Trials: trials, Label: "fig2",
		Probes: Probes{Sink: obs.MultiSink{campaign, sink}, Prof: prof},
	})
	if len(sink.recs) != trials {
		t.Fatalf("emitted %d records, want %d", len(sink.recs), trials)
	}
	c := counterMap(campaign.Snapshot())
	if c["runs.total"] != int64(trials) {
		t.Fatalf("campaign aggregated %d runs, want %d", c["runs.total"], trials)
	}
	for i, rec := range sink.recs {
		if rec.Label != "fig2" || rec.Phase != 2 || rec.Kind != "race" {
			t.Fatalf("record %d mislabelled: %+v", i, rec)
		}
		if rec.Trial != i || rec.Seed != pairSeed(3, 0, i) {
			t.Fatalf("record %d trial/seed = %d/%d", i, rec.Trial, rec.Seed)
		}
		if rec.RaceCreated && rec.StepsToRace < 0 {
			t.Fatalf("record %d created a race but StepsToRace = %d", i, rec.StepsToRace)
		}
	}
	if c["sched.steps"] != rep.TotalSteps {
		t.Fatalf("sched.steps = %d, report TotalSteps = %d", c["sched.steps"], rep.TotalSteps)
	}
	// The scheduler profile counts the same grants, and the policy's
	// postponed-set traffic.
	s := prof.Summary()
	if s.Grants != rep.TotalSteps || s.Rounds <= 0 || s.Switches <= 0 || s.Actions["postpone"] <= 0 ||
		s.Actions["race"] != int64(rep.RaceRuns) {
		t.Fatalf("scheduler profile %+v for report %+v", s, rep)
	}
	for _, h := range campaign.Snapshot().Histograms {
		if h.Name == "steps_to_race" && int(h.Hist.Count) != rep.RaceRuns {
			t.Fatalf("steps-to-race count %d != race runs %d", h.Hist.Count, rep.RaceRuns)
		}
	}
}

// counterMap indexes a snapshot's counters by name.
func counterMap(s obs.Snapshot) map[string]int64 {
	m := map[string]int64{}
	for _, nc := range s.Counters {
		m[nc.Name] = nc.Value
	}
	return m
}

func TestAnalyzeAggregatesCampaignMetrics(t *testing.T) {
	campaign := obs.NewCampaignMetrics()
	prof := schedprof.NewCollector()
	o := Options{Seed: 1, Phase1Trials: 4, Phase2Trials: 10, Probes: Probes{Sink: campaign, Prof: prof}}
	rep := Analyze(bench.Figure1(), o)
	wantRuns := int64(o.Phase1Trials + o.Phase2Trials*len(rep.Potential))
	counters := counterMap(campaign.Snapshot())
	if rep.TotalSteps() <= 0 || counters["sched.steps"] <= rep.TotalSteps() {
		t.Fatalf("report steps %d, campaign steps %d (phase 1 included)",
			rep.TotalSteps(), counters["sched.steps"])
	}
	if counters["runs.total"] != wantRuns || counters["runs.phase1"] != int64(o.Phase1Trials) {
		t.Fatalf("counters = %v", counters)
	}
	if s := prof.Summary(); s.Trials != wantRuns || s.Grants != counters["sched.steps"] || s.Rounds <= 0 {
		t.Fatalf("scheduler profile %+v, campaign counters %v", s, counters)
	}
}

// TestObservationDoesNotChangeVerdicts: attaching metrics and the
// scheduler profile must not perturb any schedule — identical seeds yield
// identical reports with and without observation.
func TestObservationDoesNotChangeVerdicts(t *testing.T) {
	plain := FuzzPair(bench.Figure1(), bench.Fig1PairZ, 0, Options{Seed: 5, Phase2Trials: 20})
	observed := FuzzPair(bench.Figure1(), bench.Fig1PairZ, 0, Options{
		Seed: 5, Phase2Trials: 20,
		Probes: Probes{Sink: obs.NewCampaignMetrics(), Prof: schedprof.NewCollector()},
	})
	if plain.RaceRuns != observed.RaceRuns ||
		plain.ExceptionRuns != observed.ExceptionRuns ||
		plain.FirstRaceTrial != observed.FirstRaceTrial ||
		plain.FirstRaceSeed != observed.FirstRaceSeed ||
		plain.TotalSteps != observed.TotalSteps {
		t.Fatalf("observation changed outcomes:\nplain    = %+v\nobserved = %+v", plain, observed)
	}
}

// counterProgram runs workers threads that each take a lock, read and
// write one shared location, and release the lock, iters times.
func counterProgram(workers, iters int) Program {
	acq, rd, wr, rel := event.StmtFor("counter:acq"), event.StmtFor("counter:read"),
		event.StmtFor("counter:write"), event.StmtFor("counter:rel")
	return func(mt *sched.Thread) {
		s := mt.Scheduler()
		lk, loc := s.NewLock("L"), s.NewLoc("n")
		var kids []*sched.Thread
		for w := 0; w < workers; w++ {
			kids = append(kids, mt.Fork("w", func(c *sched.Thread) {
				for j := 0; j < iters; j++ {
					c.LockAcquire(lk, acq)
					c.MemRead(loc, rd)
					c.MemWrite(loc, wr)
					c.LockRelease(lk, rel)
				}
			}))
		}
		for _, k := range kids {
			mt.Join(k)
		}
	}
}

// TestProfCountsMatchResultAndRecording: one trial's scheduler profile
// agrees with its Result (grants, switches, policy and forced rounds) and
// with the actions a flight recording of the same trial shows, for the
// race, deadlock and atomicity policies alike.
func TestProfCountsMatchResultAndRecording(t *testing.T) {
	pair := event.MakeStmtPair(event.StmtFor("counter:read"), event.StmtFor("counter:write"))
	cases := []struct {
		name   string
		prog   func() Program
		target func() Target
		seed   int64
	}{
		{"race counter", func() Program { return counterProgram(3, 10) }, func() Target { return newRaceTarget(pair) }, 7},
		{"race figure2", func() Program { return bench.Figure2(5) }, func() Target { return newRaceTarget(bench.Fig2Pair) }, 3},
		{"deadlock abba", abbaProgram, func() Target {
			return DetectTargets("deadlock", abbaProgram(), Options{Seed: 5, Phase1Trials: 6})[0]
		}, 1},
		{"atomicity lostupdate", func() Program { return lostUpdateProgram(nil) }, func() Target {
			return DetectTargets("atomicity", lostUpdateProgram(nil), Options{Seed: 8, Phase1Trials: 6})[0]
		}, 0},
	}
	for _, tc := range cases {
		prof := schedprof.NewCollector()
		res, _, _ := Options{Probes: Probes{Prof: prof}}.trial(tc.prog(), tc.target(), tc.seed)
		s := prof.Summary()
		if s.Grants != int64(res.Steps) || s.Switches != int64(res.Switches) ||
			s.Rounds != int64(res.Rounds-res.PolicyStalls) || s.ForcedGrants != int64(res.PolicyStalls) {
			t.Fatalf("%s: profile grants/switches/rounds/forced = %d/%d/%d/%d, result %+v",
				tc.name, s.Grants, s.Switches, s.Rounds, s.ForcedGrants, res)
		}
		if s.WallNs <= 0 {
			t.Fatalf("%s: profile wall time %d", tc.name, s.WallNs)
		}
		_, _, rec := Record(tc.prog(), tc.target(), tc.seed, Options{})
		acts := map[string]int64{}
		for _, a := range rec.Actions() {
			acts[a.Kind]++
		}
		for kind, n := range s.Actions {
			if n != acts[kind] {
				t.Fatalf("%s: profile counts %d %s actions, recording %d", tc.name, n, kind, acts[kind])
			}
		}
		if len(acts) == 0 {
			t.Fatalf("%s: recording shows no policy action; cross-check is vacuous", tc.name)
		}
	}
}

// TestRunStatsNilWhenMetricsAbsent: a run is timed only under Timing, so
// a record carries durationNs only with -timing.
func TestRunStatsNilWhenMetricsAbsent(t *testing.T) {
	pair := event.MakeStmtPair(event.StmtFor("counter:read"), event.StmtFor("counter:write"))
	if _, _, wall := (Options{}).trial(counterProgram(2, 5), newRaceTarget(pair), 7); wall != 0 {
		t.Fatalf("wall = %v without Timing", wall)
	}
	for _, timing := range []bool{false, true} {
		sink := &collectSink{}
		FuzzPair(counterProgram(2, 5), pair, 0, Options{Seed: 1, Phase2Trials: 3, Probes: Probes{Sink: sink, Timing: timing}})
		DetectPotentialRaces(counterProgram(2, 5), Options{Seed: 1, Phase1Trials: 2, Probes: Probes{Sink: sink, Timing: timing}})
		if len(sink.recs) != 5 {
			t.Fatalf("timing %v: %d records, want 5", timing, len(sink.recs))
		}
		for _, rec := range sink.recs {
			if (rec.DurationNs > 0) != timing {
				t.Fatalf("record (timing %v): durationNs %d", timing, rec.DurationNs)
			}
		}
	}
}
