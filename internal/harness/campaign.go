package harness

import (
	"fmt"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/report"
)

// The adaptive budget campaign: instead of giving every registry target the
// same Phase2Trials, split one global trial budget across targets over
// several allocation rounds, reweighting between rounds toward targets that
// are still producing new corpus signatures and new interleaving-coverage
// cells ("Fuzzing at Scale"-style). The allocator (corpus.Allocate) is a
// deterministic bandit — weights are a pure function of per-target
// discovery state, rounds use seeds derived from the master seed, and every
// per-target pipeline is the standard deterministic one — so the whole
// campaign is bit-identical at any Workers width.

// CampaignOptions parameterizes RunAdaptiveCampaign.
type CampaignOptions struct {
	// Seed is the master seed; round r of a target uses a derived stream,
	// so successive rounds explore fresh schedules yet stay reproducible.
	Seed int64
	// Budget is the global phase-2 trial budget spread across all targets
	// and rounds (phase-1 observations ride on top, they are not charged).
	// Default 1000.
	Budget int
	// Rounds is the number of allocation rounds. Default 3.
	Rounds int
	// Workers is the per-pipeline trial executor width (core.Options.Workers).
	Workers int
	// Corpus receives every confirmed finding and coverage cell and drives
	// the reallocation; nil runs with a fresh in-memory store (adaptive
	// within this campaign, nothing persisted).
	Corpus *corpus.Store
	// Probes observe every pipeline execution (core.Options.Probes); with
	// TraceDir set, witnesses are captured for new signatures.
	core.Probes
	// Executor, when non-nil, runs each allocation round's units somewhere
	// other than this process — the fleet coordinator implements it by
	// leasing units to a worker pool and merging their result batches back
	// in unit order. Nil runs every unit in-process (the classic adaptive
	// campaign). Whatever the executor, the driver's accounting is the
	// same, so a fleet campaign's corpus and rows match the single-process
	// campaign at the same budget.
	Executor RoundExecutor
}

// RoundUnit is one allocation round's work for one target: the
// deterministic, distributable (target, seed, trial-budget) tuple. Any
// process holding the same binary re-executes it bit-identically.
type RoundUnit struct {
	// Round is the 1-based allocation round.
	Round int `json:"round"`
	// TargetIndex is the target's index in the campaign's name list.
	TargetIndex int `json:"targetIndex"`
	// Target is the registry benchmark name.
	Target string `json:"target"`
	// Trials is the phase-2 trial budget this unit spends.
	Trials int `json:"trials"`
	// Seed is the round's base seed (roundSeed of the campaign master).
	Seed int64 `json:"seed"`
}

// UnitOutcome is what executing one RoundUnit reports back to the driver.
type UnitOutcome struct {
	// Trials is the phase-2 trials actually run (< Trials requested when a
	// round's phase 1 found fewer targets than the budget could cover).
	Trials int `json:"trials"`
	// Potential is the number of phase-1 warnings the unit's run reported.
	Potential int `json:"potential"`
}

// RoundExecutor runs one allocation round's units and folds each unit's
// discoveries into the campaign corpus. The contract the driver's
// accounting depends on: for every unit i, in increasing i, the executor
// calls begin(i), then performs (or completes) all of unit i's corpus
// writes, then calls done(i, outcome) — so the driver can measure per-unit
// discovery deltas around each fold exactly as the sequential loop does.
// Units may execute concurrently (the fleet leases them all at once); only
// the fold-and-callback sequence must be ordered.
type RoundExecutor interface {
	ExecuteRound(units []RoundUnit, begin func(i int), done func(i int, out UnitOutcome)) error
}

// localExecutor is the in-process RoundExecutor: units run sequentially on
// the caller's goroutine, writing straight through to the campaign store.
type localExecutor struct {
	store *corpus.Store
	o     CampaignOptions
}

func (e localExecutor) ExecuteRound(units []RoundUnit, begin func(i int), done func(i int, out UnitOutcome)) error {
	for i, u := range units {
		begin(i)
		done(i, RunUnit(u, e.store, e.o))
	}
	return nil
}

func (o CampaignOptions) withDefaults() CampaignOptions {
	if o.Budget <= 0 {
		o.Budget = 1000
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	return o
}

// roundSeed derives the base seed of one allocation round.
func roundSeed(master int64, round int) int64 {
	return master + int64(round)*1_000_000_007
}

// CampaignRow is the adaptive campaign's outcome for one target.
type CampaignRow struct {
	Name string
	// AllocByRound is the trial budget granted in each round.
	AllocByRound []int
	// Trials is the total phase-2 trials actually run (== sum of rounds,
	// except when a round's phase 1 found no targets to spend on).
	Trials int
	// Potential is the number of phase-1 warnings in the final round run.
	Potential int
	// NewSignatures and NewCells are the distinct corpus signatures and
	// coverage cells this campaign added for the target.
	NewSignatures int
	NewCells      int
	// KnownSightings counts confirmations deduplicated against pre-existing
	// corpus entries.
	KnownSightings int
	// Plateaued reports the allocator's final verdict: the target went
	// PlateauRounds consecutive rounds without a new signature or cell.
	Plateaued bool
}

// RunAdaptiveCampaign runs the race pipeline over the named registry
// benchmarks ("" or empty = all) under a global trial budget, in-process.
func RunAdaptiveCampaign(names []string, o CampaignOptions) []CampaignRow {
	o.Executor = nil
	rows, _ := RunCampaign(names, o) // the in-process executor cannot fail
	return rows
}

// RunCampaign is RunAdaptiveCampaign with a pluggable round executor
// (CampaignOptions.Executor): the driver allocates budget, measures per-unit
// discovery deltas and advances the bandit exactly as the in-process
// campaign does, while the executor decides where units actually run. An
// executor error (e.g. the fleet coordinator shutting down mid-round)
// aborts the campaign and returns the rows accumulated so far.
func RunCampaign(names []string, o CampaignOptions) ([]CampaignRow, error) {
	o = o.withDefaults()
	if len(names) == 0 {
		names = bench.Names()
	}
	store := o.Corpus
	if store == nil {
		store = corpus.NewStore()
	}
	exec := o.Executor
	if exec == nil {
		exec = localExecutor{store: store, o: o}
	}
	rows := make([]CampaignRow, len(names))
	states := make([]corpus.TargetState, len(names))
	for i, n := range names {
		bench.MustByName(n) // fail fast on unknown targets
		states[i] = corpus.TargetState{Name: n}
		rows[i] = CampaignRow{Name: n}
	}
	// Split the global budget over rounds as evenly as possible (earlier
	// rounds absorb the remainder), then across targets by discovery weight.
	for r := 0; r < o.Rounds; r++ {
		roundBudget := o.Budget / o.Rounds
		if r < o.Budget%o.Rounds {
			roundBudget++
		}
		alloc := corpus.Allocate(roundBudget, states)
		var units []RoundUnit
		for i := range names {
			rows[i].AllocByRound = append(rows[i].AllocByRound, alloc[i])
			if alloc[i] == 0 {
				states[i] = states[i].Advance(0, 0)
				continue
			}
			units = append(units, RoundUnit{
				Round: r + 1, TargetIndex: i, Target: names[i],
				Trials: alloc[i], Seed: roundSeed(o.Seed, r),
			})
		}
		// Per-unit accounting happens in the executor's ordered
		// begin/fold/done window, so deltas attribute to the right target
		// whether the unit ran here or on a worker three machines away.
		var sigsBefore, cellsBefore int
		var knownBefore int64
		err := exec.ExecuteRound(units,
			func(j int) {
				i := units[j].TargetIndex
				sigsBefore = store.BenchSignatures(names[i])
				cellsBefore = store.CoverageLen()
				_, knownBefore = store.Counts()
			},
			func(j int, out UnitOutcome) {
				i := units[j].TargetIndex
				rows[i].Trials += out.Trials
				rows[i].Potential = out.Potential
				dSigs := store.BenchSignatures(names[i]) - sigsBefore
				dCells := store.CoverageLen() - cellsBefore
				_, knownAfter := store.Counts()
				rows[i].NewSignatures += dSigs
				rows[i].NewCells += dCells
				rows[i].KnownSightings += int(knownAfter - knownBefore)
				states[i] = states[i].Advance(dSigs, dCells)
			})
		if err != nil {
			return rows, fmt.Errorf("harness: campaign round %d: %w", r+1, err)
		}
	}
	for i := range rows {
		rows[i].Plateaued = states[i].Plateaued()
	}
	return rows, nil
}

// RunUnit executes one round unit against store: phase 1, then the unit's
// trial budget spread across the reported pairs (earlier pairs absorb the
// remainder; pairs past the budget are skipped this round — a later round's
// fresh seed revisits them). It is the in-process campaign's inner loop and
// the fleet worker's batch body: the unit tuple plus the store fully
// determine the execution.
func RunUnit(u RoundUnit, store *corpus.Store, o CampaignOptions) UnitOutcome {
	b := bench.MustByName(u.Target)
	opts := core.Options{
		Seed:         u.Seed,
		Phase1Trials: b.Phase1Trials,
		MaxSteps:     b.MaxSteps,
		Workers:      o.Workers,
		Round:        u.Round,
		Label:        b.Name,
		Corpus:       store,
		Probes:       o.Probes,
	}
	if opts.Phase1Trials <= 0 {
		opts.Phase1Trials = 3
	}
	pairs := core.DetectPotentialRaces(b.New(), opts)
	out := UnitOutcome{Potential: len(pairs)}
	if len(pairs) == 0 {
		return out
	}
	per, extra := u.Trials/len(pairs), u.Trials%len(pairs)
	for j, pair := range pairs {
		t := per
		if j < extra {
			t++
		}
		if t == 0 {
			continue
		}
		po := opts
		po.Phase2Trials = t
		core.FuzzPair(b.New(), pair, j, po)
		out.Trials += t
	}
	return out
}

// RenderCampaign renders the adaptive campaign outcome: the budget each
// target earned round by round and what the corpus got back for it.
func RenderCampaign(rows []CampaignRow) string {
	t := report.NewTable(
		"Adaptive budget campaign: trials earned vs new signatures discovered",
		"Program", "Alloc/round", "Trials", "Potential", "NewSigs", "NewCells", "Known", "Plateaued",
	)
	for _, r := range rows {
		alloc := ""
		for i, a := range r.AllocByRound {
			if i > 0 {
				alloc += "/"
			}
			alloc += fmt.Sprintf("%d", a)
		}
		plateau := "no"
		if r.Plateaued {
			plateau = "yes"
		}
		t.AddRow(r.Name, alloc, r.Trials, r.Potential, r.NewSignatures, r.NewCells, r.KnownSightings, plateau)
	}
	return t.Render()
}
