package core

import (
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/event"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
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
	sink := &collectSink{}
	trials := 8
	rep := FuzzPair(bench.Figure2(5), bench.Fig2Pair, 0, Options{
		Seed: 3, Phase2Trials: trials, Label: "fig2",
		Probes: Probes{Metrics: campaign, Sink: sink},
	})
	if len(sink.recs) != trials {
		t.Fatalf("emitted %d records, want %d", len(sink.recs), trials)
	}
	if campaign.Runs() != int64(trials) {
		t.Fatalf("campaign aggregated %d runs, want %d", campaign.Runs(), trials)
	}
	for i, rec := range sink.recs {
		if rec.Label != "fig2" || rec.Phase != 2 || rec.Kind != "race" {
			t.Fatalf("record %d mislabelled: %+v", i, rec)
		}
		if rec.Trial != i || rec.Seed != pairSeed(3, 0, i) {
			t.Fatalf("record %d trial/seed = %d/%d", i, rec.Trial, rec.Seed)
		}
		if rec.Stats == nil {
			t.Fatalf("record %d missing stats", i)
		}
		if rec.RaceCreated && rec.StepsToRace < 0 {
			t.Fatalf("record %d created a race but StepsToRace = %d", i, rec.StepsToRace)
		}
	}
	// The campaign counters aggregate the per-run stats.
	snap := campaign.Snapshot()
	c := counterMap(snap)
	if c["policy.decisions"] <= 0 || c["sched.switches"] <= 0 || c["policy.postpones"] <= 0 {
		t.Fatalf("aggregates empty: %v", c)
	}
	if c["sched.steps"] != rep.TotalSteps {
		t.Fatalf("sched.steps = %d, report TotalSteps = %d", c["sched.steps"], rep.TotalSteps)
	}
	for _, h := range snap.Histograms {
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
	o := Options{Seed: 1, Phase1Trials: 4, Phase2Trials: 10, Probes: Probes{Metrics: campaign}}
	rep := Analyze(bench.Figure1(), o)
	wantRuns := int64(o.Phase1Trials + o.Phase2Trials*len(rep.Potential))
	if campaign.Runs() != wantRuns {
		t.Fatalf("campaign runs = %d, want %d", campaign.Runs(), wantRuns)
	}
	counters := counterMap(campaign.Snapshot())
	if rep.TotalSteps() <= 0 || counters["sched.steps"] <= rep.TotalSteps() {
		t.Fatalf("report steps %d, campaign steps %d (phase 1 included)",
			rep.TotalSteps(), counters["sched.steps"])
	}
	if counters["runs.total"] != wantRuns || counters["runs.phase1"] != int64(o.Phase1Trials) {
		t.Fatalf("counters = %v", counters)
	}
	if counters["sched.steps"] <= 0 || counters["policy.decisions"] <= 0 {
		t.Fatalf("scheduler counters empty: %v", counters)
	}
}

// TestObservationDoesNotChangeVerdicts: attaching metrics must not perturb
// any schedule — identical seeds yield identical reports with and without
// observation.
func TestObservationDoesNotChangeVerdicts(t *testing.T) {
	plain := FuzzPair(bench.Figure1(), bench.Fig1PairZ, 0, Options{Seed: 5, Phase2Trials: 20})
	observed := FuzzPair(bench.Figure1(), bench.Fig1PairZ, 0, Options{
		Seed: 5, Phase2Trials: 20,
		Probes: Probes{Metrics: obs.NewCampaignMetrics()},
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

// TestRunStatsPopulated checks the per-run probe a campaign with Metrics
// attaches: scheduler totals from the Result, events by kind and the
// enabled histogram from the observer stream, and the postponed-set
// counters from the race-directed policy.
func TestRunStatsPopulated(t *testing.T) {
	pair := event.MakeStmtPair(event.StmtFor("counter:read"), event.StmtFor("counter:write"))
	o := Options{Probes: Probes{Metrics: obs.NewCampaignMetrics()}}
	res, pol, m := o.trial(counterProgram(3, 10), newRaceTarget(pair), 7)
	s := m.stats
	if s == nil {
		t.Fatal("no stats with metrics attached")
	}
	if m.wall != s.Wall {
		t.Fatalf("telemetry wall %v, stats wall %v", m.wall, s.Wall)
	}
	if s.Steps != res.Steps || s.Switches != res.Switches {
		t.Fatalf("stats steps/switches = %d/%d, result %d/%d", s.Steps, s.Switches, res.Steps, res.Switches)
	}
	// Three workers interleaving under one lock must context-switch at least
	// twice (one entry per worker) but never more than once per step.
	if s.Switches < 2 || s.Switches >= s.Steps {
		t.Fatalf("switches = %d (steps %d)", s.Switches, s.Steps)
	}
	// 3 workers x 10 iterations x (acquire, read, write, release).
	if s.Events[event.KindLock] != 30 || s.Events[event.KindUnlock] != 30 || s.Events[event.KindMem] != 60 {
		t.Fatalf("events = %v", s.Events)
	}
	// Every round the policy decided observes the enabled-set size; forced
	// grants do not.
	if want := int64(res.Rounds - res.PolicyStalls); s.Enabled.Count != want || s.Enabled.Max < 2 {
		t.Fatalf("enabled histogram = %+v, want %d samples", s.Enabled, want)
	}
	if s.Decisions != pol.(*RaceFuzzerPolicy).steps || s.Decisions == 0 || s.Wall <= 0 {
		t.Fatalf("decisions/wall: %+v", s)
	}
	// On figure 2 races are created, so postpones outnumber resumes; the
	// postponed-set counters must match the actions a flight recording of
	// the same trial shows.
	target := newRaceTarget(bench.Fig2Pair)
	_, _, m = o.trial(bench.Figure2(5), target, 3)
	s = m.stats
	_, _, rec := Record(bench.Figure2(5), target, 3, Options{})
	acts := map[string]int{}
	for _, a := range rec.Actions() {
		acts[a.Kind]++
	}
	if s.Postpones != acts["postpone"] || s.Resumes != acts["resume"] || s.LivelockBreaks != acts["livelock-break"] ||
		acts["race"] == 0 {
		t.Fatalf("postpones/resumes/breaks = %d/%d/%d, recorded actions %v",
			s.Postpones, s.Resumes, s.LivelockBreaks, acts)
	}
}

// TestRunStatsNilWhenMetricsAbsent: Metrics is the one reader of RunStats,
// so without it a trial builds none — a sink alone gets records without
// stats, timed only under Timing — and phase-1 stats carry no policy
// counters.
func TestRunStatsNilWhenMetricsAbsent(t *testing.T) {
	pair := event.MakeStmtPair(event.StmtFor("counter:read"), event.StmtFor("counter:write"))
	if _, _, m := (Options{}).trial(counterProgram(2, 5), newRaceTarget(pair), 7); m.stats != nil || m.wall != 0 {
		t.Fatalf("telemetry = %+v without Metrics or Timing", m)
	}
	for _, timing := range []bool{false, true} {
		sink := &collectSink{}
		FuzzPair(counterProgram(2, 5), pair, 0, Options{Seed: 1, Phase2Trials: 3, Probes: Probes{Sink: sink, Timing: timing}})
		for _, rec := range sink.recs {
			if rec.Stats != nil || (rec.DurationNs > 0) != timing {
				t.Fatalf("sink-only record (timing %v): stats %+v, durationNs %d", timing, rec.Stats, rec.DurationNs)
			}
		}
	}
	sink := &collectSink{}
	DetectPotentialRaces(counterProgram(2, 5), Options{Seed: 1, Phase1Trials: 2,
		Probes: Probes{Sink: sink, Metrics: obs.NewCampaignMetrics()}})
	for _, rec := range sink.recs {
		if rec.Stats == nil || rec.Stats.Steps != rec.Steps || rec.Stats.Decisions != 0 {
			t.Fatalf("phase-1 record stats = %+v", rec.Stats)
		}
	}
}
