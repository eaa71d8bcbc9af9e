package harness

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/flightrec"
)

// Regression from the corpus: every stored finding carries the campaign
// configuration that discovered it (bench, phase-1 seed and trial count,
// step bound) and the witness seed of its first confirming run, so a later
// build can re-derive the same phase-1 target list, re-run the confirming
// execution, and check three things:
//
//  1. the target is still reported by phase 1 (no silent signature churn);
//  2. the witness seed still confirms the finding, and replaying it twice
//     produces identical recordings (core.VerifyReplay);
//  3. when a witness trace was archived, the fresh recording is record-for-
//     record identical to the stored one — any change to seed derivation,
//     policy decisions or the event stream fails loudly with the first
//     divergent record.

// Regress statuses.
const (
	RegressOK            = "ok"
	RegressDiverged      = "diverged"       // replay or stored-witness divergence
	RegressNotReproduced = "not-reproduced" // witness seed no longer confirms
	RegressTargetMissing = "target-missing" // phase 1 no longer reports the target
	RegressBenchMissing  = "bench-missing"  // benchmark no longer registered
	RegressWitnessError  = "witness-error"  // stored trace unreadable
)

// NoWitnessDetail is the display Detail of a passing finding that has no
// archived witness: only checks 1 and 2 ran. Callers test for a witness
// with Store.WitnessPath, not by comparing this text.
const NoWitnessDetail = "no archived witness; replay checks only"

// RegressResult is the verdict for one stored finding.
type RegressResult struct {
	Finding corpus.Finding
	Status  string
	// Detail elaborates failures (first divergent record, missing pair...).
	Detail string
}

// OK reports a passing verdict.
func (r RegressResult) OK() bool { return r.Status == RegressOK }

func (r RegressResult) String() string {
	s := fmt.Sprintf("%-14s %s %s", r.Status, r.Finding.Bench, r.Finding.Sig.Canon())
	if r.Detail != "" {
		s += ": " + r.Detail
	}
	return s
}

// regressKey identifies one phase-1 configuration; target lists are
// re-derived once per distinct key, not once per finding.
type regressKey struct {
	bench    string
	kind     string
	seed     int64
	p1, maxS int
}

// regressCtx caches re-derived phase-1 target lists across findings.
type regressCtx struct {
	store   *corpus.Store
	targets map[regressKey][]core.Target
	// lookup resolves a finding's benchmark (bench.ByName; tests swap in
	// programs that are not registered).
	lookup func(string) (bench.Benchmark, bool)
}

// newRegressCtx starts an empty target cache over store.
func newRegressCtx(store *corpus.Store) *regressCtx {
	return &regressCtx{store: store, targets: make(map[regressKey][]core.Target), lookup: bench.ByName}
}

// Regress replays every stored finding and returns the per-finding verdicts
// plus an overall pass flag.
func Regress(store *corpus.Store) ([]RegressResult, bool) {
	ctx := newRegressCtx(store)
	findings := store.Findings()
	results := make([]RegressResult, 0, len(findings))
	ok := true
	for _, f := range findings {
		res := ctx.one(f)
		if !res.OK() {
			ok = false
		}
		results = append(results, res)
	}
	return results, ok
}

func (ctx *regressCtx) one(f corpus.Finding) RegressResult {
	out := RegressResult{Finding: f, Status: RegressOK}
	b, opts, target, err := ctx.resolve(f)
	var miss *unresolved
	if errors.As(err, &miss) {
		out.Status, out.Detail = miss.status, miss.detail
		return out
	}
	fresh, hits, div := core.VerifyReplay(b.New(), target, f.WitnessSeed, opts)
	if div != nil {
		out.Status = RegressDiverged
		out.Detail = "replay nondeterministic: " + div.String()
		return out
	}
	if hits == 0 {
		out.Status = RegressNotReproduced
		out.Detail = fmt.Sprintf("seed %d no longer confirms the %s", f.WitnessSeed, f.Sig.Kind)
		return out
	}

	// Strongest check: the fresh recording must match the archived witness
	// record for record. A finding without a witness passes on the replay
	// checks alone, and says so.
	wp := ctx.store.WitnessPath(f)
	if wp == "" {
		out.Detail = NoWitnessDetail
		return out
	}
	if _, err := os.Stat(wp); err != nil {
		out.Status = RegressWitnessError
		out.Detail = fmt.Sprintf("stored witness unreadable: %v", err)
		return out
	}
	stored, err := flightrec.LoadFile(wp)
	if err != nil {
		out.Status = RegressWitnessError
		out.Detail = fmt.Sprintf("stored witness unreadable: %v", err)
		return out
	}
	if stored.Truncated {
		// A torn final line lost the tail of the witness; verify the
		// fresh recording against the intact prefix only.
		out.Detail = "stored witness truncated (partial final record skipped)"
		if len(fresh.Records) > len(stored.Records) {
			trimmed := *fresh
			trimmed.Records = fresh.Records[:len(stored.Records)]
			fresh = &trimmed
		}
	}
	if div := flightrec.Diverge(fresh, stored); div != nil {
		out.Status = RegressDiverged
		out.Detail = div.String()
		return out
	}
	return out
}

// unresolved says why a finding no longer resolves to a target: a Regress
// status and its detail.
type unresolved struct{ status, detail string }

func (u *unresolved) Error() string { return u.detail }

// resolve re-derives the phase-1 target list of f's campaign configuration
// (once per distinct configuration) and finds f's target in it, returning
// the benchmark and the options that replay the target's trials. Its
// error is always an *unresolved.
func (ctx *regressCtx) resolve(f corpus.Finding) (bench.Benchmark, core.Options, core.Target, error) {
	b, found := ctx.lookup(f.Bench)
	if !found {
		return b, core.Options{}, nil, &unresolved{RegressBenchMissing, fmt.Sprintf("benchmark %q not registered", f.Bench)}
	}
	opts := core.Options{
		Seed:         f.FirstSeenSeed,
		Phase1Trials: f.Phase1Trials,
		MaxSteps:     f.MaxSteps,
		Label:        f.Bench,
	}
	key := regressKey{f.Bench, f.Sig.Kind, f.FirstSeenSeed, f.Phase1Trials, f.MaxSteps}
	targets, cached := ctx.targets[key]
	if !cached {
		targets = core.DetectTargets(f.Sig.Kind, b.New(), opts)
		ctx.targets[key] = targets
	}
	idx := slices.IndexFunc(targets, func(t core.Target) bool { return t.String() == f.Pair })
	if idx < 0 {
		return b, opts, nil, &unresolved{RegressTargetMissing, fmt.Sprintf("phase 1 no longer reports %s target %s", f.Sig.Kind, f.Pair)}
	}
	return b, opts, targets[idx], nil
}

// ArchiveWitnesses re-records each finding's witness from its seeds (a
// witness is a function of its finding, the paper's §2.2 replay) into
// store's witness directory, under the name the in-process campaign gives
// it, and attaches it to the stored finding. paths[i] is findings[i]'s
// witness, "" when none was archived; each error names a finding left
// without one. A store with no witness directory archives nothing.
func ArchiveWitnesses(store *corpus.Store, findings []corpus.Finding) (paths []string, errs []error) {
	paths = make([]string, len(findings))
	dir := store.WitnessDir()
	if dir == "" {
		return paths, nil
	}
	ctx := newRegressCtx(store)
	for i, f := range findings {
		b, opts, target, err := ctx.resolve(f)
		if err == nil {
			paths[i], err = core.CaptureWitness(b.New(), target, f.TargetIndex, f.WitnessTrial, f.WitnessSeed, dir, opts)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("witness of %s %s not archived: %w", f.Bench, f.Sig.Canon(), err))
			continue
		}
		store.AttachWitness(f.Sig, paths[i])
	}
	return paths, errs
}
