package analytics

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"racefuzzer/internal/obs"
)

// Report is the computed analysis of one campaign — everything the
// markdown and CSV renderers draw from. All slices are in deterministic
// (sorted or first-appearance) order.
type Report struct {
	Sources          SourceInfo
	Provenance       *obs.Provenance
	CorpusProvenance *obs.Provenance

	Totals   Totals
	Targets  []TargetStats
	Global   DiscoveryCurve
	TTFC     TTFCStats
	Rounds   []RoundTrend
	Frontier FrontierStats
	Audit    []AuditRow
	Checks   []ReconcileCheck

	Witnesses []KindCount
}

// SourceInfo names the ingested artifacts.
type SourceInfo struct {
	LogName         string
	CorpusName      string
	LogTruncated    bool
	CorpusTruncated bool
}

// Totals are the campaign-wide tallies: the one fold of run records,
// behind both the report's Totals and the live -metrics table (Live).
type Totals struct {
	Runs       int
	Phase1     int
	Phase2     int
	Confirming int // phase-2 runs that created the directed goal
	NewSigs    int // runs classified "new" against the corpus
	KnownSigs  int // runs classified "known"
	NewCells   int // coverage cells added (sum of newCells)
	Exceptions int
	Deadlocks  int
	Aborted    int
	Steps      int64
	// WallNs sums per-run durations; zero when the campaign ran without
	// -timing.
	WallNs int64
	// FirstConfirm counts the runs up to and including the first
	// confirming one (0 when none confirmed): how many runs confirmation
	// cost.
	FirstConfirm int
	// Traces counts runs that carry an archived flight recording.
	Traces int
	// StepsToRace buckets the scheduler step at which each confirming run
	// created its goal (nil until one did).
	StepsToRace *obs.Histogram
}

// stepsToRaceBounds buckets Totals.StepsToRace — the "how deep into the
// execution does the pair meet" distribution behind the paper's
// probability claims.
var stepsToRaceBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000}

// add folds one run record into the totals.
func (t *Totals) add(rec obs.RunRecord) {
	t.Runs++
	t.Steps += int64(rec.Steps)
	t.WallNs += rec.DurationNs
	if len(rec.Exceptions) > 0 {
		t.Exceptions++
	}
	if rec.Deadlock {
		t.Deadlocks++
	}
	if rec.Aborted {
		t.Aborted++
	}
	if rec.Trace != "" {
		t.Traces++
	}
	if rec.Phase == 1 {
		t.Phase1++
		return
	}
	t.Phase2++
	switch rec.Finding {
	case "new":
		t.NewSigs++
	case "known":
		t.KnownSigs++
	}
	if rec.RaceCreated {
		t.Confirming++
		if t.FirstConfirm == 0 {
			t.FirstConfirm = t.Runs
		}
		if rec.StepsToRace >= 0 {
			if t.StepsToRace == nil {
				t.StepsToRace = obs.NewHistogram(stepsToRaceBounds...)
			}
			t.StepsToRace.Observe(float64(rec.StepsToRace))
		}
	}
	t.NewCells += rec.NewCells
}

// Timed reports whether any run carried its wall time (-timing).
func (t Totals) Timed() bool { return t.WallNs > 0 }

// Snapshot renders the totals as the "campaign metrics" table -metrics
// prints, rows in name order. wall.seconds appears only when Timed.
func (t Totals) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Counters: []obs.NamedCounter{
			{Name: "findings.known", Value: int64(t.KnownSigs)},
			{Name: "findings.new", Value: int64(t.NewSigs)},
			{Name: "runs.aborted", Value: int64(t.Aborted)},
			{Name: "runs.deadlock", Value: int64(t.Deadlocks)},
			{Name: "runs.exception", Value: int64(t.Exceptions)},
			{Name: "runs.phase1", Value: int64(t.Phase1)},
			{Name: "runs.race", Value: int64(t.Confirming)},
			{Name: "runs.total", Value: int64(t.Runs)},
			{Name: "sched.steps", Value: t.Steps},
			{Name: "traces.captured", Value: int64(t.Traces)},
			{Name: "trials.total", Value: int64(t.Phase2)},
		},
		// dedup_rate is emitted unconditionally (0 before any sighting), so
		// a corpus-less campaign's table has the same rows as a corpus
		// campaign's.
		Gauges: []obs.NamedGauge{
			{Name: "findings.dedup_rate", Value: t.DedupRate()},
			{Name: "race.first_run", Value: float64(t.FirstConfirm - 1)},
		},
		Histograms: []obs.NamedHistogram{{Name: "steps_to_race", Hist: t.StepsToRace.Snapshot()}},
	}
	// The hit rate is per directed trial: phase-1 observations never
	// confirm, so counting them would sink the rate as -phase1 grows.
	if t.Phase2 > 0 {
		s.Gauges = append(s.Gauges, obs.NamedGauge{Name: "race.hit_rate", Value: float64(t.Confirming) / float64(t.Phase2)})
	}
	if t.Timed() {
		s.Gauges = append(s.Gauges, obs.NamedGauge{Name: "wall.seconds", Value: time.Duration(t.WallNs).Seconds()})
	}
	return s
}

// Live is the -metrics sink: it folds run records into Totals as they are
// emitted. A Sink may see concurrent Emit calls, so the fold is locked.
type Live struct {
	mu sync.Mutex
	t  Totals
}

// Emit implements obs.Sink.
func (l *Live) Emit(rec obs.RunRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t.add(rec)
}

// Totals returns the fold so far. Its StepsToRace histogram is the sink's
// own, so read it once the campaign has stopped emitting.
func (l *Live) Totals() Totals {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t
}

// DedupRate is known/(new+known) sightings, 0 when none confirmed.
func (t Totals) DedupRate() float64 {
	if t.NewSigs+t.KnownSigs == 0 {
		return 0
	}
	return float64(t.KnownSigs) / float64(t.NewSigs+t.KnownSigs)
}

// TargetStats is one campaign label's (benchmark's) slice of the totals,
// plus its own discovery curve.
type TargetStats struct {
	Label      string
	Runs       int
	Phase2     int
	Confirming int
	NewSigs    int
	KnownSigs  int
	NewCells   int
	Curve      DiscoveryCurve
}

// DiscoveryCurve is cumulative discovery against phase-2 trials spent. A
// point is recorded at every trial where either cumulative count moved, plus
// the final trial, so the curve is exact yet compact.
type DiscoveryCurve struct {
	Points []CurvePoint
}

// CurvePoint is one sample: after Trials phase-2 trials, Sigs cumulative new
// signatures and Cells cumulative new coverage cells had been discovered.
type CurvePoint struct {
	Trials int
	Sigs   int
	Cells  int
}

// TTFCStats is the trials-to-first-confirm distribution: for every phase-2
// target that confirmed, how many directed trials it took (1-based).
type TTFCStats struct {
	// Samples is sorted ascending.
	Samples []int
	// Unconfirmed counts targets that never confirmed.
	Unconfirmed int
}

// Min, Median and Max summarize the distribution (0 when empty).
func (t TTFCStats) Min() int {
	if len(t.Samples) == 0 {
		return 0
	}
	return t.Samples[0]
}
func (t TTFCStats) Max() int {
	if len(t.Samples) == 0 {
		return 0
	}
	return t.Samples[len(t.Samples)-1]
}
func (t TTFCStats) Median() float64 {
	n := len(t.Samples)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return float64(t.Samples[n/2])
	}
	return float64(t.Samples[n/2-1]+t.Samples[n/2]) / 2
}

// RoundTrend is one adaptive-allocation round's dedup trend.
type RoundTrend struct {
	Round    int
	Runs     int
	NewSigs  int
	Known    int
	NewCells int
}

// DedupRate is the round's known/(new+known) fraction.
func (r RoundTrend) DedupRate() float64 {
	if r.NewSigs+r.Known == 0 {
		return 0
	}
	return float64(r.Known) / float64(r.NewSigs+r.Known)
}

// FrontierStats summarizes the interleaving-coverage frontier and estimates
// how much of the signature space is still undiscovered.
type FrontierStats struct {
	// Cells is the number of distinct (signature, branch) coverage cells;
	// ByKind and ByBranch break them down.
	Cells    int
	ByKind   []KindCount
	ByBranch []KindCount

	// Observed is the number of distinct signatures ("species") with at
	// least one sighting; F1 and F2 count those seen exactly once and twice.
	Observed int
	F1       int
	F2       int
	// Chao1 is the estimated total signature richness (observed +
	// undiscovered); see chao1. AbundanceSource records where sighting
	// counts came from: "corpus" (Finding.Hits) or "log" (confirming-run
	// counts per target).
	Chao1           float64
	AbundanceSource string
}

// Completeness is Observed/Chao1 as a percentage (100 when nothing is
// estimated to remain).
func (f FrontierStats) Completeness() float64 {
	if f.Chao1 <= 0 {
		return 100
	}
	return 100 * float64(f.Observed) / f.Chao1
}

// AuditRow is one (round, target) cell of the bandit audit: the trials the
// allocator granted against the discovery yield they returned.
type AuditRow struct {
	Round    int
	Target   string
	Trials   int
	NewSigs  int
	NewCells int
	// Flag is "starved" (well under the round's average allocation yet still
	// yielding — the allocator under-fed a productive target), "dry" (over
	// the average yet yielding nothing — budget burned on a plateaued
	// target), or "".
	Flag string
}

// Yield is the row's combined discovery output.
func (a AuditRow) Yield() int { return a.NewSigs + a.NewCells }

// ReconcileCheck cross-checks one total between the two artifact trails.
type ReconcileCheck struct {
	Name   string
	Log    int64
	Corpus int64
}

// Match reports agreement. A mismatch is not necessarily corruption — a
// corpus seeded by earlier campaigns legitimately exceeds one log's totals —
// but it must be visible, not absorbed.
func (r ReconcileCheck) Match() bool { return r.Log == r.Corpus }

// Analyze computes the full report from a loaded campaign.
func Analyze(c *Campaign) *Report {
	r := &Report{
		Sources: SourceInfo{
			LogName: c.LogName, CorpusName: c.CorpusName,
			LogTruncated: c.LogTruncated, CorpusTruncated: c.CorpusTruncated,
		},
		Provenance:       c.Provenance,
		CorpusProvenance: c.CorpusProvenance,
		Witnesses:        c.Witnesses,
	}
	r.Totals, r.Targets, r.Global = tallyRuns(c.Records)
	r.TTFC = ttfc(c.Records)
	r.Rounds = roundTrends(c.Records)
	r.Frontier = frontier(c)
	r.Audit = banditAudit(c.Records)
	r.Checks = reconcile(c, r.Totals)
	return r
}

// tallyRuns folds the run log into totals, per-target stats and the global
// discovery curve. Targets are ordered by first appearance in the log (the
// log's own deterministic order).
func tallyRuns(recs []obs.RunRecord) (Totals, []TargetStats, DiscoveryCurve) {
	var t Totals
	byLabel := map[string]*TargetStats{}
	var order []string
	var global curveBuilder
	perTarget := map[string]*curveBuilder{}
	for _, rec := range recs {
		t.add(rec)
		ts := byLabel[rec.Label]
		if ts == nil {
			ts = &TargetStats{Label: rec.Label}
			byLabel[rec.Label] = ts
			order = append(order, rec.Label)
			perTarget[rec.Label] = &curveBuilder{}
		}
		ts.Runs++
		if rec.Phase == 1 {
			continue
		}
		ts.Phase2++
		newSig := 0
		switch rec.Finding {
		case "new":
			ts.NewSigs++
			newSig = 1
		case "known":
			ts.KnownSigs++
		}
		if rec.RaceCreated {
			ts.Confirming++
		}
		ts.NewCells += rec.NewCells
		global.add(newSig, rec.NewCells)
		perTarget[rec.Label].add(newSig, rec.NewCells)
	}
	out := make([]TargetStats, 0, len(order))
	for _, label := range order {
		ts := byLabel[label]
		ts.Curve = perTarget[label].curve()
		out = append(out, *ts)
	}
	return t, out, global.curve()
}

// curveBuilder accumulates a discovery curve, keeping only trials where a
// cumulative count moved (plus the final trial).
type curveBuilder struct {
	trials, sigs, cells int
	points              []CurvePoint
}

func (b *curveBuilder) add(dSigs, dCells int) {
	b.trials++
	if dSigs == 0 && dCells == 0 {
		return
	}
	b.sigs += dSigs
	b.cells += dCells
	b.points = append(b.points, CurvePoint{Trials: b.trials, Sigs: b.sigs, Cells: b.cells})
}

func (b *curveBuilder) curve() DiscoveryCurve {
	pts := b.points
	if b.trials > 0 {
		last := CurvePoint{Trials: b.trials, Sigs: b.sigs, Cells: b.cells}
		if len(pts) == 0 || pts[len(pts)-1] != last {
			pts = append(pts, last)
		}
	}
	return DiscoveryCurve{Points: pts}
}

// ttfc extracts the trials-to-first-confirm distribution: for every distinct
// phase-2 target — (label, kind, pairIndex) — the 1-based trial index of its
// first confirming run, or an Unconfirmed tick.
func ttfc(recs []obs.RunRecord) TTFCStats {
	type key struct {
		label, kind string
		pair        int
	}
	first := map[key]int{}
	var order []key
	for _, rec := range recs {
		if rec.Phase != 2 {
			continue
		}
		k := key{rec.Label, rec.Kind, rec.PairIndex}
		if _, ok := first[k]; !ok {
			first[k] = -1
			order = append(order, k)
		}
		if rec.RaceCreated && first[k] < 0 {
			first[k] = rec.Trial + 1
		}
	}
	var out TTFCStats
	for _, k := range order {
		if first[k] < 0 {
			out.Unconfirmed++
		} else {
			out.Samples = append(out.Samples, first[k])
		}
	}
	sort.Ints(out.Samples)
	return out
}

// roundTrends groups phase-2 runs by adaptive-allocation round. Logs from
// non-adaptive campaigns have Round 0 everywhere and produce a single
// "round 0" row, which the renderers present as "whole campaign".
func roundTrends(recs []obs.RunRecord) []RoundTrend {
	byRound := map[int]*RoundTrend{}
	for _, rec := range recs {
		if rec.Phase != 2 {
			continue
		}
		rt := byRound[rec.Round]
		if rt == nil {
			rt = &RoundTrend{Round: rec.Round}
			byRound[rec.Round] = rt
		}
		rt.Runs++
		switch rec.Finding {
		case "new":
			rt.NewSigs++
		case "known":
			rt.Known++
		}
		rt.NewCells += rec.NewCells
	}
	rounds := make([]int, 0, len(byRound))
	for r := range byRound {
		rounds = append(rounds, r)
	}
	sort.Ints(rounds)
	out := make([]RoundTrend, 0, len(rounds))
	for _, r := range rounds {
		out = append(out, *byRound[r])
	}
	return out
}

// frontier computes the coverage-frontier summary. Abundance — how many
// times each signature has been sighted — prefers the corpus (Finding.Hits
// spans all campaigns); a log-only analysis falls back to confirming-run
// counts per target, which undercounts cross-campaign sightings but keeps
// the estimator available.
func frontier(c *Campaign) FrontierStats {
	var f FrontierStats
	byKind := map[string]int{}
	byBranch := map[string]int{}
	for _, cell := range c.Cells {
		byKind[cell.Sig.Kind]++
		byBranch[cell.Branch]++
	}
	f.Cells = len(c.Cells)
	f.ByKind = sortedKindCounts(byKind)
	f.ByBranch = sortedKindCounts(byBranch)

	var abundance []int64
	if len(c.Findings) > 0 {
		f.AbundanceSource = "corpus"
		for _, fd := range c.Findings {
			abundance = append(abundance, fd.Hits)
		}
	} else {
		f.AbundanceSource = "log"
		counts := map[string]int64{}
		for _, rec := range c.Records {
			if rec.Phase == 2 && rec.RaceCreated {
				counts[fmt.Sprintf("%s|%s|%d", rec.Label, rec.Kind, rec.PairIndex)]++
			}
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			abundance = append(abundance, counts[k])
		}
	}
	f.Observed = len(abundance)
	for _, n := range abundance {
		switch n {
		case 1:
			f.F1++
		case 2:
			f.F2++
		}
	}
	f.Chao1 = chao1(f.Observed, f.F1, f.F2)
	return f
}

// chao1 is the classic nonparametric species-richness estimator: observed
// richness plus f1²/(2·f2) estimated undiscovered species, where f1 and f2
// are the singleton and doubleton counts. When no doubletons exist the
// bias-corrected form f1(f1−1)/2 applies. Intuition: many signatures seen
// exactly once means the campaign is still skimming a rich frontier; none
// seen once means the frontier is exhausted and Chao1 ≈ observed.
func chao1(observed, f1, f2 int) float64 {
	if observed == 0 {
		return 0
	}
	if f2 > 0 {
		return float64(observed) + float64(f1*f1)/(2*float64(f2))
	}
	return float64(observed) + float64(f1*(f1-1))/2
}

// banditAudit builds the per-round budget audit from the log: each (round,
// target) row's realized trials and discovery yield, flagged against the
// round's average allocation. "starved" = under half the round's average
// trials yet still yielding (the allocator under-fed a productive target);
// "dry" = over the average yet yielding nothing (budget burned on a
// plateaued target). Rows keep the log's target order within ascending
// rounds.
func banditAudit(recs []obs.RunRecord) []AuditRow {
	type key struct {
		round  int
		target string
	}
	cells := map[key]*AuditRow{}
	var order []key
	for _, rec := range recs {
		if rec.Phase != 2 {
			continue
		}
		k := key{rec.Round, rec.Label}
		row := cells[k]
		if row == nil {
			row = &AuditRow{Round: rec.Round, Target: rec.Label}
			cells[k] = row
			order = append(order, k)
		}
		row.Trials++
		if rec.Finding == "new" {
			row.NewSigs++
		}
		row.NewCells += rec.NewCells
	}
	// Stable: ascending round, then first-appearance target order.
	sort.SliceStable(order, func(i, j int) bool { return order[i].round < order[j].round })
	// Per-round average trials, for the flag thresholds.
	roundTrials := map[int]int{}
	roundTargets := map[int]int{}
	for _, k := range order {
		roundTrials[k.round] += cells[k].Trials
		roundTargets[k.round]++
	}
	out := make([]AuditRow, 0, len(order))
	for _, k := range order {
		row := *cells[k]
		avg := float64(roundTrials[k.round]) / float64(roundTargets[k.round])
		switch {
		case float64(row.Trials) < avg/2 && row.Yield() > 0:
			row.Flag = "starved"
		case float64(row.Trials) > avg && row.Yield() == 0:
			row.Flag = "dry"
		}
		out = append(out, row)
	}
	return out
}

// reconcile cross-checks the log's discovery totals against the corpus
// artifacts. On a campaign that began with a fresh corpus every row matches
// exactly; a pre-seeded corpus legitimately exceeds the log. No checks are
// produced when either artifact is absent.
func reconcile(c *Campaign, t Totals) []ReconcileCheck {
	if len(c.Records) == 0 || c.CorpusName == "" {
		return nil
	}
	return []ReconcileCheck{
		{Name: "new signatures (log) vs corpus findings", Log: int64(t.NewSigs), Corpus: int64(len(c.Findings))},
		{Name: "new signatures (log) vs manifest findings count", Log: int64(t.NewSigs), Corpus: int64(c.ManifestFindings)},
		{Name: "new coverage cells (log) vs corpus cells", Log: int64(t.NewCells), Corpus: int64(len(c.Cells))},
		{Name: "new coverage cells (log) vs manifest coverage count", Log: int64(t.NewCells), Corpus: int64(c.ManifestCoverage)},
	}
}
