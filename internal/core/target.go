package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// The paper (§1) presents race, deadlock and atomicity confirmation as one
// active-testing loop aimed at different targets, and this file is that
// loop. A Target holds only the facts that differ by kind (policy, hit
// outcome, signature, rendered pair, seed offset, Config.Name); phase 1
// (observe), the trial (runTrial), the ordered aggregate (tally) and the
// (target, trial) grid (confirm) are shared by all three pipelines.

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
	// policy builds a fresh directed policy for one trial; rm, when
	// non-nil, is the trial's RunMetrics.
	policy(o Options, rm *obs.RunMetrics) sched.Policy
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
// interleaving-coverage branch (corpus.Observe).
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
// a fresh detector from newDet, under the random scheduler or pol. query
// runs on the trial's worker; fold and the phase-1 record see the results
// in trial order. An explicit pol is one stateful instance shared by every
// trial, so it forces the trials to run sequentially.
func observe[D sched.Observer, T any](prog Program, o Options, kind string, pol sched.Policy,
	newDet func() D, query func(D) T, fold func(T)) {
	o = o.withDefaults()
	workers := o.workerCount()
	if pol != nil {
		workers = 1
	}
	type obsRun struct {
		found T
		res   *sched.Result
	}
	runOrdered(workers, o.Phase1Trials,
		func(i int) obsRun {
			det := newDet()
			p := pol
			if p == nil {
				p = sched.NewRandomPolicy()
			}
			var rm *obs.RunMetrics
			if o.observing() {
				rm = obs.NewRunMetrics()
			}
			tr := o.Prof.StartTrial(o.Label, o.Seed+int64(i))
			res := sched.Run(prog, sched.Config{
				Seed: o.Seed + int64(i), Policy: p, Observers: []sched.Observer{det},
				MaxSteps: o.MaxSteps, Metrics: rm, Introspect: o.Introspect, Prof: tr,
			})
			o.Prof.FinishTrial(tr)
			return obsRun{found: query(det), res: res}
		},
		func(i int, r obsRun) {
			if o.observing() {
				o.emit(o.runRecord(1, kind, -1, i, o.Seed+int64(i), r.res))
			}
			fold(r.found)
		})
}

// runTrial runs one directed trial of t under pol, with the given probes
// (Metrics, Flight, Introspect, Prof) attached. Plain trials, witness
// recordings and perf timelines all build their sched.Config here: a run
// is a pure function of (program, policy, seed) and every probe is
// passive, so a capture re-run is the same execution as the trial it
// captures.
func runTrial(prog Program, t Target, pol sched.Policy, seed int64, o Options, probes sched.Config) *sched.Result {
	probes.Seed, probes.Policy, probes.MaxSteps, probes.Name = seed, pol, o.MaxSteps, t.configName()
	return sched.Run(prog, probes)
}

// trial is one phase-2 execution with the campaign's probes attached.
func (o Options) trial(prog Program, t Target, seed int64) (*sched.Result, sched.Policy) {
	var rm *obs.RunMetrics
	if o.observing() {
		rm = obs.NewRunMetrics()
	}
	pol := t.policy(o, rm)
	tr := o.Prof.StartTrial(o.Label, seed)
	res := runTrial(prog, t, pol, seed, o, sched.Config{Metrics: rm, Introspect: o.Introspect, Prof: tr})
	o.Prof.FinishTrial(tr)
	return res, pol
}

// Record is one phase-2 trial of t with a flight recorder attached: it
// returns the result, the number of target hits (races created,
// violations, or 1 for a deadlock on the target's locks; 0 = not
// confirmed) and the complete causal recording. Witness auto-capture
// archives exactly these recordings.
func Record(prog Program, t Target, seed int64, o Options) (*sched.Result, int, *flightrec.Recording) {
	pol := t.policy(o, nil)
	rec := flightrec.NewRecorder(flightrec.Header{
		Label: o.Label, Policy: pol.Name(), Kind: t.Kind(),
		Seed: seed, Pair: t.String(), MaxSteps: o.MaxSteps,
	})
	res := runTrial(prog, t, pol, seed, o, sched.Config{Flight: rec, Introspect: o.Introspect})
	rec.Finish(res)
	return res, t.outcome(pol, res).hits, rec.Recording()
}

// VerifyReplay records the same (target, seed) twice and returns the first
// divergence between the two recordings, or nil when the replay is exact —
// the paper's §2.2 determinism claim as a checkable invariant.
func VerifyReplay(prog Program, t Target, seed int64, o Options) *flightrec.Divergence {
	_, _, a := Record(prog, t, seed, o)
	_, _, b := Record(prog, t, seed, o)
	return flightrec.Diverge(b, a)
}

// profile is one phase-2 trial of t with a standalone schedprof trial
// attached; it returns the trial's timeline for Perfetto export.
func profile(prog Program, t Target, seed int64, o Options) *schedprof.Timeline {
	tr := schedprof.NewTrial(o.Label, seed, 0)
	runTrial(prog, t, t.policy(o, nil), seed, o, sched.Config{Prof: tr})
	return tr.Timeline()
}

// trialResult is one grid trial as the tally receives it.
type trialResult struct {
	seed int64
	res  *sched.Result
	outcome
}

// confirm is phase 2 for targets, numbered first, first+1, ...: it fans
// the whole (target, trial) grid across the campaign executor, so a target
// with a straggling trial never idles the pool, and folds each target's
// trials in trial order, so the tallies are bit-identical at any worker
// count.
func confirm(prog Program, targets []Target, first int, o Options) []PairReport {
	o = o.withDefaults()
	n := o.Phase2Trials
	tallies := make([]tally, len(targets))
	for j, t := range targets {
		tallies[j] = tally{prog: prog, t: t, index: first + j, o: o,
			rep: PairReport{Trials: n, FirstRaceTrial: -1, FirstExceptionTrial: -1}}
		if o.observing() {
			tallies[j].stepsToHit = obs.NewStepsToRaceHistogram()
		}
	}
	runOrdered(o.workerCount(), len(targets)*n,
		func(k int) trialResult {
			t := targets[k/n]
			seed := pairSeed(o.Seed, first+k/n+t.seedOffset(), k%n)
			res, pol := o.trial(prog, t, seed)
			return trialResult{seed: seed, res: res, outcome: t.outcome(pol, res)}
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
	prog       Program
	t          Target
	index      int
	o          Options
	rep        PairReport
	kinds      map[string]bool
	stepsToHit *obs.Histogram
}

func (a *tally) add(i int, r trialResult) {
	rep, o, res := &a.rep, a.o, r.res
	rep.TotalSteps += int64(res.Steps)
	if stats := res.Stats; stats != nil {
		rep.TotalSwitches += int64(stats.Switches)
		rep.TotalDecisions += int64(stats.Decisions)
		rep.TotalPostpones += int64(stats.Postpones)
	}
	if res.Deadlock != nil {
		rep.DeadlockRuns++
	}
	tracePath, perfPath, finding, newCells := "", "", "", 0
	if r.hits > 0 {
		a.stepsToHit.Observe(float64(r.step))
		rep.RaceRuns++
		var sig corpus.Signature
		if o.Corpus != nil {
			sig = a.t.signature()
			if o.Corpus.Observe(sig, r.branch) {
				newCells++
			}
		}
		if rep.FirstRaceTrial < 0 {
			rep.FirstRaceTrial, rep.FirstRaceSeed = i, r.seed
			finding = o.reportFinding(sig, a.t.String(), a.index, i, r.seed, runExceptionKinds(res))
			rep.Known = finding == "known"
			// With a corpus attached only new signatures record witnesses:
			// known ones already have a regression baseline on disk.
			if o.TraceDir != "" && finding != "known" {
				_, _, witness := Record(a.prog, a.t, r.seed, o)
				tracePath, rep.TraceErr = save(witness, o.capturePath(o.TraceDir, a.t.Kind(), a.index, i, ".trace.jsonl"))
				rep.TracePath = tracePath
				o.Corpus.AttachWitness(sig, tracePath)
			}
			if o.PerfDir != "" {
				tl := profile(a.prog, a.t, r.seed, o)
				perfPath, rep.PerfErr = save(tl, o.capturePath(o.PerfDir, a.t.Kind(), a.index, i, ".perf.json"))
				rep.PerfPath = perfPath
			}
		}
		if len(res.Exceptions) > 0 {
			rep.ExceptionRuns++
			if rep.FirstExceptionTrial < 0 {
				rep.FirstExceptionTrial, rep.FirstExceptionSeed = i, r.seed
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
		rec := o.runRecord(2, a.t.Kind(), a.index, i, r.seed, res)
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
	rep.StepsToRace = a.stepsToHit.Snapshot()
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
	isNew := o.Corpus.Report(corpus.Finding{
		Sig: sig, Bench: o.Label, Pair: pairStr, TargetIndex: targetIndex,
		FirstSeenSeed: o.Seed, Phase1Trials: o.Phase1Trials, MaxSteps: o.MaxSteps,
		WitnessSeed: witnessSeed, WitnessTrial: trial, Exceptions: exceptions,
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
