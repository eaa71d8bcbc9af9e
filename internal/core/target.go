package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// The paper (§1) presents race, deadlock and atomicity confirmation as one
// active-testing loop aimed at different targets, and this file is that
// loop. A Target holds only the facts that differ by kind (policy, hit
// outcome, signature, rendered pair, seed offset, Config.Name); phase 1
// (observe), the trial (trialConfig, Options.run), the ordered aggregate
// (tally) and the (target, trial) grid (confirm) are shared by all three
// pipelines.

// Target is one phase-2 goal: a racing statement pair, a lock-order cycle
// or an intended-atomic block. Targets come from DetectTargets; the
// interface is sealed, only this package implements it.
type Target interface {
	// Kind names the pipeline: "race", "deadlock" or "atomicity".
	Kind() string
	// String renders the target the way findings store it (Finding.Pair).
	String() string

	// seedOffset salts the per-target seed stream of its kind.
	seedOffset() int
	// configName is the trial's sched.Config.Name.
	configName() string
	// policy builds a fresh directed policy for one trial.
	policy() sched.Policy
	// outcome reads what a finished trial did to the target.
	outcome(pol sched.Policy, res *sched.Result) outcome
	// signature is the target's canonical corpus identity. It is built
	// from statement labels, never from dynamic identities (LockID, MemLoc,
	// ThreadID): labels are stable across executions, seeds and processes,
	// which is what lets a later campaign recognize the same bug. Lock and
	// thread identities stay in String, for people and regress matching.
	signature() corpus.Signature
}

// outcome is what one directed trial did to its target: hits counts races
// created or violations (1 for a deadlock on the target's locks; 0 = not
// confirmed), step is the scheduler step of the first hit and branch its
// interleaving-coverage branch (corpus.CoverageCell).
type outcome struct {
	hits, step int
	branch     string
}

// DetectTargets is phase 1 of the kind's pipeline ("race", "deadlock" or
// "atomicity"; any other kind has no targets), in phase-2 index order.
func DetectTargets(kind string, prog Program, o Options) []Target {
	var out []Target
	switch kind {
	case "race":
		for _, p := range DetectPotentialRaces(prog, o) {
			out = append(out, newRaceTarget(p))
		}
	case "deadlock":
		for _, c := range DetectPotentialDeadlocks(prog, o) {
			out = append(out, newLockCycle(c))
		}
	case "atomicity":
		for _, t := range DetectAtomicityTargets(prog, o) {
			out = append(out, newAtomicBlock(t))
		}
	}
	return out
}

// observe is phase 1 of every pipeline: Phase1Trials executions, each with
// a fresh detector from newDet, under the random scheduler. query runs on
// the trial's worker; fold and the phase-1 record see the results in trial
// order.
func observe[D sched.Observer, T any](prog Program, o Options, kind string,
	newDet func() D, query func(D) T, fold func(T)) {
	o = o.WithDefaults()
	type obsRun struct {
		found T
		res   *sched.Result
		wall  time.Duration
	}
	runOrdered(o.workerCount(), o.Phase1Trials,
		func(i int) obsRun {
			det := newDet()
			res, wall := o.run(prog, sched.Config{
				Seed: o.Seed + int64(i), Policy: sched.NewRandomPolicy(), MaxSteps: o.MaxSteps,
				Observers: []sched.Observer{det},
			})
			return obsRun{found: query(det), res: res, wall: wall}
		},
		func(i int, r obsRun) {
			if o.observing() {
				o.emit(o.runRecord(1, kind, -1, i, o.Seed+int64(i), r.res, r.wall))
			}
			fold(r.found)
		})
}

// trialConfig is the sched.Config of one directed trial of t under pol.
// Plain trials, witness recordings and perf timelines all start from it: a
// run is a pure function of (program, policy, seed) and every probe is
// passive, so a capture re-run is the same execution as the trial it
// captures.
func trialConfig(t Target, pol sched.Policy, seed int64, o Options) sched.Config {
	return sched.Config{Seed: seed, Policy: pol, MaxSteps: o.MaxSteps, Name: t.configName()}
}

// trial is one phase-2 execution with the campaign's probes attached.
func (o Options) trial(prog Program, t Target, seed int64) (*sched.Result, sched.Policy, time.Duration) {
	pol := t.policy()
	res, wall := o.run(prog, trialConfig(t, pol, seed, o))
	return res, pol, wall
}

// run executes one campaign run under cfg with the campaign's profiling
// trial attached. It returns the run's wall time when the campaign's
// records carry it (Timing), 0 otherwise.
func (o Options) run(prog Program, cfg sched.Config) (*sched.Result, time.Duration) {
	cfg.Prof = o.Prof.StartTrial(o.Label, cfg.Seed)
	var start time.Time
	if o.Timing {
		start = time.Now()
	}
	res := sched.Run(prog, cfg)
	var wall time.Duration
	if o.Timing {
		wall = time.Since(start)
	}
	o.Prof.FinishTrial(cfg.Prof)
	return res, wall
}

// Record is one phase-2 trial of t with a flight recorder attached: it
// returns the result, the number of target hits (races created,
// violations, or 1 for a deadlock on the target's locks; 0 = not
// confirmed) and the complete causal recording. Witness auto-capture
// archives exactly these recordings.
func Record(prog Program, t Target, seed int64, o Options) (*sched.Result, int, *flightrec.Recording) {
	pol := t.policy()
	rec := flightrec.NewRecorder(flightrec.Header{
		Label: o.Label, Policy: pol.Name(), Kind: t.Kind(),
		Seed: seed, Pair: t.String(), MaxSteps: o.MaxSteps,
	})
	cfg := trialConfig(t, pol, seed, o)
	cfg.Observers = []sched.Observer{rec}
	res := sched.Run(prog, cfg)
	rec.Finish(res)
	return res, t.outcome(pol, res).hits, rec.Recording()
}

// CaptureWitness records trial `trial` of t, the target numbered
// targetIndex, at seed and saves the recording in dir as
// <label>-<kind>-p<targetIndex>-t<trial>.trace.jsonl; it returns the saved
// path. The seed is one that confirmed the target, so a recording without
// a target hit is a determinism failure: it is reported as an error and
// nothing is saved.
func CaptureWitness(prog Program, t Target, targetIndex, trial int, seed int64, dir string, o Options) (string, error) {
	_, hits, rec := Record(prog, t, seed, o)
	if hits == 0 {
		return "", fmt.Errorf("determinism failure: seed %d no longer confirms %s target %s", seed, t.Kind(), t)
	}
	return save(rec, o.capturePath(dir, t.Kind(), targetIndex, trial, ".trace.jsonl"))
}

// VerifyReplay records the same (target, seed) twice and returns the first
// recording, its hit count (as Record) and the first divergence between the
// two recordings, or a nil divergence when the replay is exact — the
// paper's §2.2 determinism claim as a checkable invariant.
func VerifyReplay(prog Program, t Target, seed int64, o Options) (*flightrec.Recording, int, *flightrec.Divergence) {
	_, hits, a := Record(prog, t, seed, o)
	_, _, b := Record(prog, t, seed, o)
	return a, hits, flightrec.Diverge(b, a)
}

// profile is one phase-2 trial of t with a standalone schedprof trial
// attached; it returns the trial's timeline for Perfetto export.
func profile(prog Program, t Target, seed int64, o Options) *schedprof.Timeline {
	cfg := trialConfig(t, t.policy(), seed, o)
	cfg.Prof = schedprof.NewTrial(o.Label, seed, 0)
	sched.Run(prog, cfg)
	return schedprof.TimelineOf(cfg.Prof)
}

// Capture is what a target's first confirming trial left behind, the same
// for all three report types: its saved witness recording and perf timeline,
// and its corpus verdict.
type Capture struct {
	// TracePath is the auto-captured witness recording ("" unless
	// Options.TraceDir was set and the target was confirmed); TraceErr
	// reports a failed capture attempt.
	TracePath string
	TraceErr  error
	// PerfPath is the exported Perfetto timeline ("" unless Options.PerfDir
	// was set and the target was confirmed); PerfErr reports a failed
	// export attempt.
	PerfPath string
	PerfErr  error
	// Known reports that the confirmed finding's signature was already in
	// the campaign's corpus (always false without Options.Corpus or when the
	// target was not confirmed). Known findings skip witness auto-capture.
	Known bool
}

// trialResult is one grid trial as the tally receives it.
type trialResult struct {
	res  *sched.Result
	wall time.Duration
	outcome
}

// confirm is phase 2 for targets, numbered first, first+1, ...: it fans
// the whole (target, trial) grid across the campaign executor, so a target
// with a straggling trial never idles the pool, and folds each target's
// trials in trial order, so the tallies are bit-identical at any worker
// count.
func confirm(prog Program, targets []Target, first int, o Options) []PairReport {
	o = o.WithDefaults()
	n := o.Phase2Trials
	tallies := make([]tally, len(targets))
	for j, t := range targets {
		tallies[j] = tally{prog: prog, t: t, index: first + j, o: o,
			rep: PairReport{Trials: n, FirstRaceTrial: -1, FirstExceptionTrial: -1}}
	}
	runOrdered(o.workerCount(), len(targets)*n,
		func(k int) trialResult {
			t := targets[k/n]
			res, pol, wall := o.trial(prog, t, tallies[k/n].seed(k%n))
			return trialResult{res: res, wall: wall, outcome: t.outcome(pol, res)}
		},
		func(k int, r trialResult) { tallies[k/n].add(k%n, r) })
	out := make([]PairReport, len(tallies))
	for j := range tallies {
		out[j] = tallies[j].finish()
	}
	return out
}

// tally folds one target's trials, in trial order, into a PairReport: its
// fields are the superset the three report types draw on (RaceRuns counts
// hits, FirstRace* locate the first hit, DeadlockRuns counts any deadlock).
// Corpus calls, witness and perf capture and run-record emission all happen
// here, on the consuming goroutine: a capture re-run is an ordinary extra
// task that never blocks the trial pool, and it captures the deterministic
// first hitting trial, not the first to finish.
type tally struct {
	prog  Program
	t     Target
	index int
	o     Options
	rep   PairReport
	kinds map[string]bool
}

// seed is the derived seed of the target's trial i.
func (a *tally) seed(i int) int64 { return pairSeed(a.o.Seed, a.index+a.t.seedOffset(), i) }

func (a *tally) add(i int, r trialResult) {
	rep, o, res, seed := &a.rep, a.o, r.res, a.seed(i)
	rep.TotalSteps += int64(res.Steps)
	if res.Deadlock != nil {
		rep.DeadlockRuns++
	}
	tracePath, perfPath, finding, newCells := "", "", "", 0
	if r.hits > 0 {
		rep.RaceRuns++
		var sig corpus.Signature
		if o.Corpus != nil {
			sig = a.t.signature()
			if o.Corpus.IngestCell(corpus.CoverageCell{Sig: sig, Branch: r.branch, Hits: 1}) {
				newCells++
			}
		}
		if rep.FirstRaceTrial < 0 {
			rep.FirstRaceTrial, rep.FirstRaceSeed = i, seed
			finding = o.reportFinding(sig, a.t.String(), a.index, i, seed, runExceptionKinds(res))
			rep.Known = finding == "known"
			// With a corpus attached only new signatures record witnesses:
			// known ones already have a regression baseline on disk.
			if o.TraceDir != "" && finding != "known" {
				tracePath, rep.TraceErr = CaptureWitness(a.prog, a.t, a.index, i, seed, o.TraceDir, o)
				rep.TracePath = tracePath
				o.Corpus.AttachWitness(sig, tracePath)
			}
			if o.PerfDir != "" {
				tl := profile(a.prog, a.t, seed, o)
				perfPath, rep.PerfErr = save(tl, o.capturePath(o.PerfDir, a.t.Kind(), a.index, i, ".perf.json"))
				rep.PerfPath = perfPath
			}
		}
		if len(res.Exceptions) > 0 {
			rep.ExceptionRuns++
			if rep.FirstExceptionTrial < 0 {
				rep.FirstExceptionTrial, rep.FirstExceptionSeed = i, seed
			}
			if a.kinds == nil {
				a.kinds = make(map[string]bool)
			}
			for _, ex := range res.Exceptions {
				a.kinds[exceptionKind(ex)] = true
			}
		}
	}
	if o.observing() {
		rec := o.runRecord(2, a.t.Kind(), a.index, i, seed, res, r.wall)
		rec.Pair = a.t.String()
		rec.RaceCreated = r.hits > 0
		rec.Races = r.hits
		if r.hits > 0 {
			rec.StepsToRace = r.step
		}
		rec.Trace, rec.Perf, rec.Finding, rec.NewCells = tracePath, perfPath, finding, newCells
		o.emit(rec)
	}
}

func (a *tally) finish() PairReport {
	rep := a.rep
	rep.IsReal = rep.RaceRuns > 0
	rep.Probability = float64(rep.RaceRuns) / float64(rep.Trials)
	for k := range a.kinds {
		rep.ExceptionKinds = append(rep.ExceptionKinds, k)
	}
	sort.Strings(rep.ExceptionKinds)
	return rep
}

// reportFinding records a target's first confirming trial in the campaign
// corpus and returns the dedup verdict for telemetry: "" (no corpus
// attached), "new" or "known". The tally calls it from the ordered merge
// goroutine, so verdicts are bit-identical at any worker count.
func (o Options) reportFinding(sig corpus.Signature, pairStr string, targetIndex, trial int, witnessSeed int64, exceptions []string) string {
	if o.Corpus == nil {
		return ""
	}
	isNew := o.Corpus.Ingest(corpus.Finding{
		Sig: sig, Bench: o.Label, Pair: pairStr, TargetIndex: targetIndex,
		FirstSeenSeed: o.Seed, LastSeenSeed: o.Seed, Phase1Trials: o.Phase1Trials, MaxSteps: o.MaxSteps,
		WitnessSeed: witnessSeed, WitnessTrial: trial, Hits: 1, Exceptions: exceptions,
	})
	if isNew {
		return "new"
	}
	return "known"
}

// runExceptionKinds reduces a result's exceptions to their distinct kinds,
// in order of first occurrence.
func runExceptionKinds(res *sched.Result) []string {
	var out []string
	seen := make(map[string]bool)
	for _, ex := range res.Exceptions {
		k := exceptionKind(ex)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// capturePath names an auto-captured witness or perf timeline inside dir:
// <label>-<kind>-p<target>-t<trial><ext>.
func (o Options) capturePath(dir, kind string, targetIndex, trial int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-p%d-t%d%s", sanitizeLabel(o.Label), kind, targetIndex, trial, ext))
}

// sanitizeLabel makes a campaign label safe as a file-name component.
func sanitizeLabel(label string) string {
	if label == "" {
		return "run"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-' || r == '_' || r == '.':
			return r
		}
		return '-'
	}, label)
}

// save writes a witness recording or perf timeline and reports the path
// ("" plus the error when saving failed; capture failures never fail the
// campaign).
func save(capture interface{ SaveFile(string) error }, path string) (string, error) {
	if err := capture.SaveFile(path); err != nil {
		return "", err
	}
	return path, nil
}
