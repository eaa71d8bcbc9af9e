package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
)

// campaignBenches keeps campaign tests fast: two small registry programs
// with known confirmed races.
var campaignBenches = []string{"figure1", "vector"}

func TestAdaptiveCampaignConservesBudget(t *testing.T) {
	store := corpus.NewStore()
	rows := RunAdaptiveCampaign(campaignBenches, CampaignOptions{
		Seed: 7, Budget: 60, Rounds: 3, Corpus: store,
	})
	if len(rows) != len(campaignBenches) {
		t.Fatalf("rows = %d, want %d", len(rows), len(campaignBenches))
	}
	granted := 0
	for _, r := range rows {
		if len(r.AllocByRound) != 3 {
			t.Fatalf("%s: %d allocation rounds, want 3", r.Name, len(r.AllocByRound))
		}
		for _, a := range r.AllocByRound {
			granted += a
		}
		if r.Trials > 0 && r.NewSignatures == 0 && r.KnownSightings == 0 {
			t.Fatalf("%s: spent %d trials, confirmed nothing", r.Name, r.Trials)
		}
	}
	if granted != 60 {
		t.Fatalf("allocator granted %d trials, budget was 60", granted)
	}
	if store.Len() == 0 {
		t.Fatal("campaign populated no corpus findings")
	}
}

func TestAdaptiveCampaignDeterministicAcrossWorkers(t *testing.T) {
	type outcome struct {
		rows     []CampaignRow
		findings []corpus.Finding
		coverage []corpus.CoverageCell
	}
	run := func(workers int) outcome {
		store := corpus.NewStore()
		rows := RunAdaptiveCampaign(campaignBenches, CampaignOptions{
			Seed: 7, Budget: 60, Rounds: 2, Workers: workers, Corpus: store,
		})
		return outcome{rows: rows, findings: store.Findings(), coverage: store.Coverage()}
	}
	base := run(0)
	for _, workers := range []int{1, 4, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got.rows, base.rows) {
			t.Fatalf("workers=%d: campaign rows diverge\n got: %+v\nwant: %+v",
				workers, got.rows, base.rows)
		}
		if !reflect.DeepEqual(got.findings, base.findings) {
			t.Fatalf("workers=%d: corpus findings diverge", workers)
		}
		if !reflect.DeepEqual(got.coverage, base.coverage) {
			t.Fatalf("workers=%d: coverage map diverges", workers)
		}
	}
}

func TestAdaptiveCampaignStarvesPlateauedTargets(t *testing.T) {
	store := corpus.NewStore()
	rows := RunAdaptiveCampaign([]string{"figure1"}, CampaignOptions{
		Seed: 7, Budget: 120, Rounds: 6, Corpus: store,
	})
	r := rows[0]
	if !r.Plateaued {
		t.Fatalf("single tiny target not plateaued after 6 rounds: %+v", r)
	}
	// Once plateaued, later rounds should grant less than the early,
	// discovery-rich rounds did (weight drops to the floor).
	if last := r.AllocByRound[len(r.AllocByRound)-1]; last > r.AllocByRound[0] {
		t.Fatalf("plateaued target's allocation grew: %v", r.AllocByRound)
	}
}

func TestRegressCleanOnFreshCorpus(t *testing.T) {
	dir := t.TempDir()
	store, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	RunAdaptiveCampaign(campaignBenches, CampaignOptions{
		Seed: 7, Budget: 40, Rounds: 2, Corpus: store,
		Probes: core.Probes{TraceDir: store.WitnessDir()},
	})
	if store.Len() == 0 {
		t.Fatal("campaign produced no findings to regress")
	}
	if err := store.Save(); err != nil {
		t.Fatal(err)
	}

	reopened, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	results, ok := Regress(reopened)
	if !ok {
		for _, r := range results {
			if !r.OK() {
				t.Errorf("regress: %s", r)
			}
		}
		t.Fatal("regress failed on a freshly built corpus")
	}
	if len(results) != reopened.Len() {
		t.Fatalf("regressed %d findings, corpus has %d", len(results), reopened.Len())
	}
	witnessed := 0
	for _, r := range results {
		if r.Finding.WitnessTrace != "" {
			witnessed++
		}
	}
	if witnessed == 0 {
		t.Fatal("no finding carried an archived witness")
	}
}

// TestArchiveWitnessesReproduceCampaignCaptures: re-recording each finding
// of a campaign corpus from its seeds writes, under the same name, the
// witness the campaign captured, byte for byte, and attaches it; a store
// without a witness directory archives nothing.
func TestArchiveWitnessesReproduceCampaignCaptures(t *testing.T) {
	ref, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	RunAdaptiveCampaign(campaignBenches, CampaignOptions{
		Seed: 7, Budget: 40, Rounds: 2, Corpus: ref,
		Probes: core.Probes{TraceDir: ref.WitnessDir()},
	})
	findings := ref.Findings()
	if len(findings) == 0 {
		t.Fatal("campaign produced no findings to archive")
	}
	store, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		f.WitnessTrace = ""
		store.Ingest(f)
	}
	paths, errs := ArchiveWitnesses(store, findings)
	if len(errs) > 0 {
		t.Fatalf("archive: %v", errs)
	}
	for i, f := range findings {
		want, err := os.ReadFile(ref.WitnessPath(f))
		if err != nil {
			t.Fatalf("campaign witness of %s: %v", f.Sig, err)
		}
		got, err := os.ReadFile(paths[i])
		if err != nil {
			t.Fatalf("archived witness of %s: %v", f.Sig, err)
		}
		if filepath.Base(paths[i]) != filepath.Base(ref.WitnessPath(f)) || !bytes.Equal(got, want) {
			t.Fatalf("archived witness %s differs from campaign capture %s", paths[i], ref.WitnessPath(f))
		}
	}
	if !reflect.DeepEqual(store.Findings(), findings) {
		t.Fatalf("archived findings differ from the campaign's:\n got: %+v\nwant: %+v", store.Findings(), findings)
	}

	paths, errs = ArchiveWitnesses(corpus.NewStore(), findings)
	if len(errs) > 0 || slices.ContainsFunc(paths, func(p string) bool { return p != "" }) {
		t.Fatalf("in-memory store archived %v (errors %v)", paths, errs)
	}
}

func TestRegressDetectsMissingBench(t *testing.T) {
	store := corpus.NewStore()
	store.Ingest(corpus.Finding{
		Sig:   corpus.MakeSignature("race", "a:1", "b:2", "race"),
		Bench: "no-such-bench", Pair: "(a:1, b:2)",
	})
	results, ok := Regress(store)
	if ok {
		t.Fatal("regress passed with an unregistered benchmark")
	}
	if results[0].Status != RegressBenchMissing {
		t.Fatalf("status = %s, want %s", results[0].Status, RegressBenchMissing)
	}
}

func TestRenderCampaignMentionsEveryTarget(t *testing.T) {
	rows := []CampaignRow{
		{Name: "figure1", AllocByRound: []int{10, 5}, Trials: 15, NewSignatures: 1},
		{Name: "vector", AllocByRound: []int{10, 15}, Trials: 25, Plateaued: true},
	}
	out := RenderCampaign(rows)
	for _, want := range []string{"figure1", "vector", "10/5", "10/15", "yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
