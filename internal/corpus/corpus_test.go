package corpus

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"racefuzzer/internal/obs"
)

func sig(kind, a, b, outcome string) Signature { return MakeSignature(kind, a, b, outcome) }

// sight ingests one confirmed sighting of f by the campaign seeded
// f.FirstSeenSeed, as a single-process campaign's tally does.
func sight(s *Store, f Finding) bool {
	f.Hits, f.LastSeenSeed = 1, f.FirstSeenSeed
	return s.Ingest(f)
}

// observe ingests one observation of the cell (sig, branch).
func observe(s *Store, sig Signature, branch string) bool {
	return s.IngestCell(CoverageCell{Sig: sig, Branch: branch, Hits: 1})
}

func TestSignatureNormalization(t *testing.T) {
	a := sig("race", "f.go:10", "f.go:3", "race")
	b := sig("race", "f.go:3", "f.go:10", "race")
	if a != b {
		t.Fatalf("signature not order-normalized: %v vs %v", a, b)
	}
	if a.LocA != "f.go:10" || a.LocB != "f.go:3" {
		t.Fatalf("unexpected sort order: %+v (lexicographic expected)", a)
	}
	if got, want := a.Canon(), "race|f.go:10|f.go:3|race"; got != want {
		t.Fatalf("Canon() = %q, want %q", got, want)
	}
}

func TestReportDedupAndHits(t *testing.T) {
	s := NewStore()
	f := Finding{Sig: sig("race", "a", "b", "race"), Bench: "figure1", FirstSeenSeed: 1, Exceptions: []string{"BOOM"}}
	if !sight(s, f) {
		t.Fatal("first report not new")
	}
	f2 := f
	f2.FirstSeenSeed = 99
	f2.Exceptions = []string{"BANG"}
	if sight(s, f2) {
		t.Fatal("second report of same signature reported new")
	}
	fs := s.Findings()
	if len(fs) != 1 {
		t.Fatalf("len(Findings) = %d, want 1", len(fs))
	}
	got := fs[0]
	if got.Hits != 2 || got.FirstSeenSeed != 1 || got.LastSeenSeed != 99 {
		t.Fatalf("merged finding = %+v", got)
	}
	if !reflect.DeepEqual(got.Exceptions, []string{"BANG", "BOOM"}) {
		t.Fatalf("exceptions not merged sorted: %v", got.Exceptions)
	}
	if n, k := s.Counts(); n != 1 || k != 1 {
		t.Fatalf("Counts = (%d, %d), want (1, 1)", n, k)
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sight(s, Finding{Sig: sig("race", "a", "b", "race"), Bench: "figure1", FirstSeenSeed: 7, WitnessSeed: 12, Phase1Trials: 3})
	sight(s, Finding{Sig: sig("deadlock", "c", "d", "deadlock"), Bench: "dl", FirstSeenSeed: 7, WitnessSeed: 44})
	observe(s, sig("race", "a", "b", "race"), "candidate-first")
	observe(s, sig("race", "a", "b", "race"), "postponed-first")
	observe(s, sig("race", "a", "b", "race"), "candidate-first")
	s.AttachWitness(sig("race", "a", "b", "race"), filepath.Join(dir, "witnesses", "w.trace.jsonl"))
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Truncated() {
		t.Fatal("clean save reported truncated")
	}
	if !reflect.DeepEqual(r.Findings(), s.Findings()) {
		t.Fatalf("findings did not roundtrip:\n got %+v\nwant %+v", r.Findings(), s.Findings())
	}
	if !reflect.DeepEqual(r.Coverage(), s.Coverage()) {
		t.Fatalf("coverage did not roundtrip:\n got %+v\nwant %+v", r.Coverage(), s.Coverage())
	}
	// The witness path is stored relative to the corpus dir (relocatable)
	// and resolved back on demand.
	f := r.Findings()[0]
	if f.WitnessTrace != filepath.Join(WitnessSubdir, "w.trace.jsonl") {
		t.Fatalf("witness not stored relative: %q", f.WitnessTrace)
	}
	if got, want := r.WitnessPath(f), filepath.Join(dir, WitnessSubdir, "w.trace.jsonl"); got != want {
		t.Fatalf("WitnessPath = %q, want %q", got, want)
	}
	// A re-reported known signature keeps its witness baseline.
	if sight(r, Finding{Sig: sig("race", "a", "b", "race"), FirstSeenSeed: 1000}) {
		t.Fatal("loaded signature reported new")
	}
	if n, k := r.Counts(); n != 0 || k != 1 {
		t.Fatalf("after reload Counts = (%d, %d), want (0, 1)", n, k)
	}
}

// TestWitnessOutsideCorpusResolves: a witness archived outside a corpus
// opened by a relative path (-corpusdir c -tracedir t) must still resolve
// once the working directory changes; WitnessPath joins relative paths
// onto the corpus directory, so the store keeps such a path absolute.
func TestWitnessOutsideCorpusResolves(t *testing.T) {
	root := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	witness := filepath.Join("t", "w.trace.jsonl")
	if err := os.MkdirAll("t", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(witness, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open("c")
	if err != nil {
		t.Fatal(err)
	}
	race := sig("race", "a", "b", "race")
	sight(s, Finding{Sig: race, Bench: "figure1", WitnessSeed: 1})
	s.AttachWitness(race, witness)
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}

	r, err := Open("c")
	if err != nil {
		t.Fatal(err)
	}
	f := r.Findings()[0]
	if !filepath.IsAbs(f.WitnessTrace) {
		t.Fatalf("witness outside the corpus stored relative: %q", f.WitnessTrace)
	}
	if err := os.Chdir(wd); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(r.WitnessPath(f)); err != nil {
		t.Fatalf("WitnessPath does not resolve: %v", err)
	}
}

func TestLoadSkipsTruncatedFinalLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sight(s, Finding{Sig: sig("race", "a", "b", "race"), Bench: "x", FirstSeenSeed: 1})
	sight(s, Finding{Sig: sig("race", "c", "d", "race"), Bench: "x", FirstSeenSeed: 1})
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: cut the final record in half.
	path := filepath.Join(dir, findingsFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := b[:len(b)-len(b)/4]
	if cut[len(cut)-1] == '\n' {
		cut = cut[:len(cut)-1]
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("truncated corpus failed to load: %v", err)
	}
	if !r.Truncated() {
		t.Fatal("truncated load not flagged")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after truncation, want 1 (partial record skipped)", r.Len())
	}

	// A corrupt line mid-file is NOT a crash footprint and must still fail.
	lines := []string{`{"sig":{"kind":"race","locA":"a","locB":"b","outcome":"race"},"hits":1}`, "{corrupt", `{"sig":{"kind":"race","locA":"c","locB":"d","outcome":"race"},"hits":1}`}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("mid-file corruption loaded without error")
	}
}

func TestOpenRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	m, _ := json.Marshal(manifest{V: FormatVersion + 1})
	if err := os.WriteFile(filepath.Join(dir, manifestFile), m, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "unsupported format version") {
		t.Fatalf("newer-version corpus: err = %v, want unsupported-version error", err)
	}
}

// TestConcurrentReportSameSignature is the -race check: parallel workers
// reporting the same signature must be race-free, and exactly one of them
// must see it as new.
func TestConcurrentReportSameSignature(t *testing.T) {
	s := NewStore()
	const workers = 8
	const perWorker = 200
	newCount := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if sight(s, Finding{Sig: sig("race", "a", "b", "race"), Bench: "x", FirstSeenSeed: int64(i)}) {
					newCount[w]++
				}
				observe(s, sig("race", "a", "b", "race"), "candidate-first")
				s.Len()
				s.Findings()
				s.Coverage()
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range newCount {
		total += n
	}
	if total != 1 {
		t.Fatalf("%d workers saw the signature as new, want exactly 1", total)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	fs := s.Findings()
	if fs[0].Hits != workers*perWorker {
		t.Fatalf("Hits = %d, want %d", fs[0].Hits, workers*perWorker)
	}
	cov := s.Coverage()
	if len(cov) != 1 || cov[0].Hits != workers*perWorker {
		t.Fatalf("coverage = %+v, want one cell with %d hits", cov, workers*perWorker)
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var s *Store
	if !sight(s, Finding{Sig: sig("race", "a", "b", "race")}) {
		t.Fatal("nil store Ingest should report new (no dedup)")
	}
	s.AttachWitness(sig("race", "a", "b", "race"), "p")
	observe(s, sig("race", "a", "b", "race"), "x")
	if s.Len() != 0 || s.CoverageLen() != 0 || s.Findings() != nil {
		t.Fatal("nil store should be empty")
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
}

func TestCoverageReloadSurvivesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	observe(s, sig("race", "a", "b", "race"), "candidate-first")
	observe(s, sig("race", "a", "b", "race"), "postponed-first")
	observe(s, sig("deadlock", "c", "d", "deadlock"), "deadlock")
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	// Cut the final coverage record in half: the crash-mid-write footprint.
	path := filepath.Join(dir, coverageFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := b[:len(b)-len(b)/5]
	if cut[len(cut)-1] == '\n' {
		cut = cut[:len(cut)-1]
	}
	if err := os.WriteFile(path, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("torn coverage file failed to load: %v", err)
	}
	if !r.Truncated() {
		t.Fatal("torn coverage load not flagged")
	}
	if r.CoverageLen() != 2 {
		t.Fatalf("CoverageLen = %d after tear, want 2 (partial cell skipped)", r.CoverageLen())
	}
	// The surviving cells keep their identity: re-observing them is a dup,
	// while the torn-away cell is rediscovered as new.
	if observe(r, sig("race", "a", "b", "race"), "candidate-first") {
		t.Fatal("surviving cell re-observed as new")
	}
	if !observe(r, sig("deadlock", "c", "d", "deadlock"), "deadlock") {
		t.Fatal("torn-away cell not rediscovered as new")
	}
}

func TestObserveDedupMatchesReloadedStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type obsCall struct {
		sig    Signature
		branch string
	}
	calls := []obsCall{
		{sig("race", "a", "b", "race"), "candidate-first"},
		{sig("race", "a", "b", "race"), "postponed-first"},
		{sig("race", "a", "b", "race"), "candidate-first"},
		{sig("atomicity", "p", "q", "violation"), "clean"},
		{sig("atomicity", "p", "q", "violation"), "threw"},
	}
	var fresh []bool
	for _, c := range calls {
		fresh = append(fresh, observe(s, c.sig, c.branch))
	}
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.CoverageLen() != s.CoverageLen() {
		t.Fatalf("reloaded CoverageLen = %d, want %d", r.CoverageLen(), s.CoverageLen())
	}
	// Replaying the same observations against the reloaded store must dedup
	// every one: each cell is already on disk.
	for i, c := range calls {
		if observe(r, c.sig, c.branch) {
			t.Fatalf("call %d (%v/%s) new against reloaded store (fresh run said %v)",
				i, c.sig, c.branch, fresh[i])
		}
	}
	// Hits accumulate across the save/load boundary.
	want := map[string]int64{}
	for _, c := range calls {
		want[c.sig.Canon()+"|"+c.branch] += 2 // once pre-save, once post-reload
	}
	for _, cell := range r.Coverage() {
		if got := cell.Hits; got != want[cell.Sig.Canon()+"|"+cell.Branch] {
			t.Fatalf("cell %v/%s Hits = %d, want %d", cell.Sig, cell.Branch, got, want[cell.Sig.Canon()+"|"+cell.Branch])
		}
	}
}

func TestManifestProvenanceRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Provenance() != nil {
		t.Fatal("fresh store has provenance")
	}
	sight(s, Finding{Sig: sig("race", "a", "b", "race"), Bench: "x"})
	s.SetProvenance(obs.Provenance{Tool: "racefuzzer", Label: "nightly", Config: "seed=1"})
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Provenance()
	if p == nil || p.Tool != "racefuzzer" || p.Label != "nightly" || p.Config != "seed=1" {
		t.Fatalf("reloaded provenance = %+v", p)
	}
	// Pre-provenance corpora (no field in MANIFEST.json) still load.
	m, _ := json.Marshal(map[string]int{"v": FormatVersion, "findings": 1, "coverage": 0})
	if err := os.WriteFile(filepath.Join(dir, manifestFile), m, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := Open(dir)
	if err != nil {
		t.Fatalf("provenance-less manifest failed to load: %v", err)
	}
	if old.Provenance() != nil {
		t.Fatal("provenance-less manifest produced provenance")
	}
}

// TestLoadToleratesCRLF: a corpus whose JSONL files picked up Windows line
// endings in transit (git autocrlf, scp from a Windows worker) must load
// exactly like the LF original — the same tolerance the loader already
// extends to blank lines and torn final lines.
func TestLoadToleratesCRLF(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sight(s, Finding{Sig: sig("race", "a", "b", "race"), Bench: "figure1", FirstSeenSeed: 7})
	sight(s, Finding{Sig: sig("deadlock", "c", "d", "deadlock"), Bench: "dl", FirstSeenSeed: 9})
	observe(s, sig("race", "a", "b", "race"), "candidate-first")
	if err := s.Save(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{findingsFile, coverageFile} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		crlf := strings.ReplaceAll(string(data), "\n", "\r\n")
		if err := os.WriteFile(path, []byte(crlf), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("CRLF corpus rejected: %v", err)
	}
	if r.Truncated() {
		t.Fatal("CRLF corpus flagged truncated")
	}
	if !reflect.DeepEqual(r.Findings(), s.Findings()) {
		t.Fatalf("CRLF findings diverge:\n got %+v\nwant %+v", r.Findings(), s.Findings())
	}
	if !reflect.DeepEqual(r.Coverage(), s.Coverage()) {
		t.Fatal("CRLF coverage diverges from the LF original")
	}
}
