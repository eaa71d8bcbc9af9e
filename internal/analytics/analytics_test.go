package analytics

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/fleetspan"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
)

// writeCampaign runs a small real adaptive campaign into dir: run.jsonl with
// a provenance header, plus a corpus subdirectory with witnesses. Every test
// ingests artifacts the actual pipelines wrote, not hand-built fixtures.
func writeCampaign(t *testing.T, dir string, seed int64) {
	t.Helper()
	corpusDir := filepath.Join(dir, "corpus")
	store, err := corpus.Open(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	logFile, err := os.Create(filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	prov := obs.CollectProvenance("racefuzzer", "campaign", map[string]string{
		"seed": "7", "budget": "40", "rounds": "2",
	})
	sink := obs.NewJSONLSink(logFile).Header(prov)
	store.SetProvenance(prov)
	harness.RunAdaptiveCampaign([]string{"figure2", "figure1"}, harness.CampaignOptions{
		Seed: seed, Budget: 40, Rounds: 2, Corpus: store,
		Probes: core.Probes{TraceDir: store.WitnessDir(), Sink: sink},
	})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndReconciliation(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 7)
	c, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.Provenance == nil || c.Provenance.Tool != "racefuzzer" {
		t.Fatalf("log provenance = %+v", c.Provenance)
	}
	if c.CorpusProvenance == nil || c.CorpusProvenance.Config != "budget=40 rounds=2 seed=7" {
		t.Fatalf("corpus provenance = %+v", c.CorpusProvenance)
	}
	r := Analyze(c)
	if r.Totals.Phase2 == 0 || r.Totals.NewSigs == 0 {
		t.Fatalf("campaign discovered nothing: %+v", r.Totals)
	}
	// The acceptance criterion: discovery totals from the log reconcile
	// exactly with the corpus written by the same (fresh-corpus) run.
	if len(r.Checks) == 0 {
		t.Fatal("no reconciliation checks")
	}
	for _, ck := range r.Checks {
		if !ck.Match() {
			t.Errorf("reconciliation failed: %s: log=%d corpus=%d", ck.Name, ck.Log, ck.Corpus)
		}
	}
	// The discovery curve's final point carries the same totals.
	pts := r.Global.Points
	if len(pts) == 0 {
		t.Fatal("empty discovery curve")
	}
	if f := pts[len(pts)-1]; f.Sigs != r.Totals.NewSigs || f.Cells != r.Totals.NewCells {
		t.Fatalf("curve final %+v != totals new sigs %d cells %d", f, r.Totals.NewSigs, r.Totals.NewCells)
	}
	// Adaptive campaigns stamp rounds 1..Rounds.
	if len(r.Rounds) != 2 || r.Rounds[0].Round != 1 || r.Rounds[1].Round != 2 {
		t.Fatalf("rounds = %+v", r.Rounds)
	}
	// Round 2 re-confirms round 1's signatures: dedup rate must rise.
	if !(r.Rounds[1].DedupRate() > r.Rounds[0].DedupRate()) {
		t.Fatalf("dedup trend not rising: %v then %v", r.Rounds[0].DedupRate(), r.Rounds[1].DedupRate())
	}
	// Audit covers every (round, target) that ran trials.
	if len(r.Audit) == 0 {
		t.Fatal("empty bandit audit")
	}
	// The untimed campaign carries no wall clock.
	if r.Totals.Timed {
		t.Fatal("untimed campaign reported Timed")
	}
	// TraceDir pointed into the corpus: witnesses must be visible.
	if len(r.Witnesses) == 0 {
		t.Fatal("no witnesses surfaced")
	}
	if r.Frontier.Observed == 0 || r.Frontier.Chao1 < float64(r.Frontier.Observed) {
		t.Fatalf("frontier = %+v", r.Frontier)
	}
	if r.Frontier.AbundanceSource != "corpus" {
		t.Fatalf("abundance source = %q", r.Frontier.AbundanceSource)
	}
}

// TestLoadDirSkipsCorpusFiles: a corpus directory holds JSONL files that are
// not run logs. LoadDir must never take them for one: with no run log the
// report is corpus-only, and a run log under another name is still found.
func TestLoadDirSkipsCorpusFiles(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 7)
	corpusDir := filepath.Join(dir, "corpus")
	if err := os.WriteFile(filepath.Join(corpusDir, fleetspan.TrailFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if c.LogName != "" || len(c.Records) != 0 {
		t.Fatalf("corpus-only dir loaded %q as the run log (%d records)", c.LogName, len(c.Records))
	}
	if c.CorpusName != "corpus" || len(c.Findings) == 0 {
		t.Fatalf("corpus not loaded: name %q, %d findings", c.CorpusName, len(c.Findings))
	}

	log, err := os.ReadFile(filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corpusDir, "runs.jsonl"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err = LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if c.LogName != "runs.jsonl" {
		t.Fatalf("run log = %q, want runs.jsonl", c.LogName)
	}
	for _, ck := range Analyze(c).Checks {
		if !ck.Match() {
			t.Errorf("reconciliation failed: %s: log=%d corpus=%d", ck.Name, ck.Log, ck.Corpus)
		}
	}
}

// TestReportBytesDeterministic is the contract CI's report-smoke job builds
// on: two identical campaigns, written into different directories, loaded
// separately, must render byte-identical markdown and CSV.
func TestReportBytesDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	writeCampaign(t, dirA, 7)
	writeCampaign(t, dirB, 7)
	render := func(dir string) (string, string) {
		c, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		r := Analyze(c)
		return Markdown(r), CSV(r)
	}
	mdA, csvA := render(dirA)
	mdB, csvB := render(dirB)
	if mdA != mdB {
		t.Error("markdown bytes differ across identical campaigns")
	}
	if csvA != csvB {
		t.Error("CSV bytes differ across identical campaigns")
	}
	for _, want := range []string{"Discovery curve", "Bandit audit", "Coverage frontier", "Reconciliation"} {
		if !strings.Contains(mdA, want) {
			t.Errorf("markdown report missing %q section", want)
		}
	}
	if !strings.Contains(csvA, "# discovery_curve") || !strings.Contains(csvA, "# audit") {
		t.Error("CSV missing sections")
	}
}

func TestChao1(t *testing.T) {
	cases := []struct {
		observed, f1, f2 int
		want             float64
	}{
		{0, 0, 0, 0},
		{10, 0, 0, 10},   // no singletons: frontier exhausted
		{10, 4, 2, 14},   // 10 + 16/4
		{10, 3, 0, 13},   // bias-corrected: 10 + 3·2/2
		{5, 5, 0, 15},    // everything a singleton: rich frontier
		{8, 2, 1, 8 + 2}, // 8 + 4/2
		{100, 10, 5, 100 + 10},
	}
	for _, c := range cases {
		if got := chao1(c.observed, c.f1, c.f2); got != c.want {
			t.Errorf("chao1(%d,%d,%d) = %v, want %v", c.observed, c.f1, c.f2, got, c.want)
		}
	}
}

func TestLoadLogTolerance(t *testing.T) {
	dir := t.TempDir()
	// A legacy log: no provenance header, plus a torn final line.
	path := filepath.Join(dir, "legacy.jsonl")
	content := `{"seq":0,"phase":1,"pairIndex":-1,"trial":0,"seed":1,"raceCreated":false,"stepsToRace":-1,"steps":5}
{"seq":1,"phase":2,"kind":"race","pairIndex":0,"trial":0,"seed":2,"raceCreated":true,"stepsToRace":3,"steps":9,"finding":"new","newCells":1}
{"seq":2,"phase":2,"kind":"ra`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, prov, trunc, err := LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if prov != nil {
		t.Fatal("headerless log produced provenance")
	}
	if !trunc || len(recs) != 2 {
		t.Fatalf("recs=%d trunc=%v, want 2 records with truncation flagged", len(recs), trunc)
	}
	c := &Campaign{LogName: "legacy.jsonl", Records: recs, LogTruncated: trunc}
	r := Analyze(c)
	if r.Totals.NewSigs != 1 || r.Totals.NewCells != 1 || r.Totals.Phase1 != 1 {
		t.Fatalf("totals = %+v", r.Totals)
	}
	// Log-only analysis: no reconciliation, log-based abundance.
	if len(r.Checks) != 0 {
		t.Fatal("log-only analysis produced reconciliation checks")
	}
	if r.Frontier.AbundanceSource != "log" || r.Frontier.Observed != 1 {
		t.Fatalf("frontier = %+v", r.Frontier)
	}
	// A corrupt line mid-file still fails.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{corrupt\n{\"seq\":0,\"phase\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := LoadLog(bad); err == nil {
		t.Fatal("mid-file corruption loaded without error")
	}
}

func TestTTFCAndAuditFlags(t *testing.T) {
	// Hand-built records exercising the flag thresholds: in one round,
	// target "hog" gets 10 trials and yields nothing (dry), target "gem"
	// gets 2 trials and yields a signature (starved).
	var recs []obs.RunRecord
	for i := 0; i < 10; i++ {
		recs = append(recs, obs.RunRecord{Seq: int64(i), Label: "hog", Phase: 2,
			Kind: "race", PairIndex: 0, Trial: i, Round: 1, StepsToRace: -1})
	}
	recs = append(recs,
		obs.RunRecord{Seq: 10, Label: "gem", Phase: 2, Kind: "race", PairIndex: 0,
			Trial: 0, Round: 1, StepsToRace: -1},
		obs.RunRecord{Seq: 11, Label: "gem", Phase: 2, Kind: "race", PairIndex: 0,
			Trial: 1, Round: 1, RaceCreated: true, Finding: "new", NewCells: 1, StepsToRace: 4},
	)
	r := Analyze(&Campaign{LogName: "x.jsonl", Records: recs})
	flags := map[string]string{}
	for _, a := range r.Audit {
		flags[a.Target] = a.Flag
	}
	if flags["hog"] != "dry" || flags["gem"] != "starved" {
		t.Fatalf("audit flags = %v", flags)
	}
	// TTFC: gem confirmed on trial index 1 → 2 trials; hog never confirmed.
	if len(r.TTFC.Samples) != 1 || r.TTFC.Samples[0] != 2 || r.TTFC.Unconfirmed != 1 {
		t.Fatalf("ttfc = %+v", r.TTFC)
	}
	if r.TTFC.Median() != 2 {
		t.Fatalf("median = %v", r.TTFC.Median())
	}
}

// TestLoadLogToleratesCRLF: a run log with Windows line endings (git
// autocrlf, a log copied off a Windows machine) must parse exactly like its
// LF twin — header recognized, every record loaded, nothing flagged torn.
func TestLoadLogToleratesCRLF(t *testing.T) {
	dir := t.TempDir()
	content := `{"provenance":{"tool":"racefuzzer","go":"go1.22"}}
{"seq":0,"phase":1,"pairIndex":-1,"trial":0,"seed":1,"raceCreated":false,"stepsToRace":-1,"steps":5}
{"seq":1,"phase":2,"kind":"race","pairIndex":0,"trial":0,"seed":2,"raceCreated":true,"stepsToRace":3,"steps":9,"finding":"new","newCells":1}
`
	lf := filepath.Join(dir, "lf.jsonl")
	crlf := filepath.Join(dir, "crlf.jsonl")
	if err := os.WriteFile(lf, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(crlf, []byte(strings.ReplaceAll(content, "\n", "\r\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	wantRecs, wantProv, _, err := LoadLog(lf)
	if err != nil {
		t.Fatal(err)
	}
	recs, prov, trunc, err := LoadLog(crlf)
	if err != nil {
		t.Fatalf("CRLF log rejected: %v", err)
	}
	if trunc {
		t.Fatal("CRLF log flagged truncated")
	}
	if prov == nil || wantProv == nil || prov.Tool != wantProv.Tool {
		t.Fatalf("provenance header lost under CRLF: %+v vs %+v", prov, wantProv)
	}
	if !reflect.DeepEqual(recs, wantRecs) {
		t.Fatalf("CRLF records diverge:\n got %+v\nwant %+v", recs, wantRecs)
	}
}
