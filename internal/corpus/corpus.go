// Package corpus is the persistent findings store behind long-running
// campaigns: every confirmed race, deadlock and atomicity violation is
// recorded under a canonical signature, so later campaigns can tell a
// brand-new finding from the hundredth sighting of a known one, replay the
// stored witnesses as a regression suite, and reallocate trial budget
// toward targets that are still producing new signatures.
//
// The on-disk layout mirrors internal/flightrec's idioms: a versioned
// manifest (MANIFEST.json) plus newline-delimited JSON record files
// (findings.jsonl, coverage.jsonl). Saves are atomic (write-temp + rename),
// and loading tolerates a truncated final line — the footprint of a crash
// mid-write — by skipping the partial record instead of failing the whole
// load. Witness flight recordings live under <dir>/witnesses/.
//
// All Store methods are safe for concurrent use; the campaign pipelines
// additionally call them from their single merge goroutine in deterministic
// (target, trial) order, which is what makes dedup verdicts bit-identical
// at any worker count.
package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"racefuzzer/internal/obs"
)

// FormatVersion is the corpus directory format version. Loading a corpus
// written by a newer version fails gracefully, like flightrec.Load.
const FormatVersion = 1

// Signature is the canonical identity of a finding: the kind of program
// location the pipeline targets ("race" = statement pair, "deadlock" = lock
// cycle's acquisition statements, "atomicity" = block boundaries), the
// sorted pair of statement locations, and the confirmed outcome kind. Two
// sightings with equal signatures are the same finding, whatever campaign,
// seed or worker count produced them — the DR.FIX-style dedup key.
type Signature struct {
	// Kind is the location kind: "race", "deadlock" or "atomicity".
	Kind string `json:"kind"`
	// LocA and LocB are the sorted (LocA <= LocB) statement labels of the
	// target — file:line pairs for races, acquisition statements for
	// deadlocks, block boundaries for atomicity targets.
	LocA string `json:"locA"`
	LocB string `json:"locB"`
	// Outcome is the confirmed outcome kind: "race", "deadlock" or
	// "violation".
	Outcome string `json:"outcome"`
}

// MakeSignature normalizes the location pair (sorted, so the signature is
// order-independent like event.MakeStmtPair).
func MakeSignature(kind, locA, locB, outcome string) Signature {
	if locB < locA {
		locA, locB = locB, locA
	}
	return Signature{Kind: kind, LocA: locA, LocB: locB, Outcome: outcome}
}

// Canon renders the signature as its canonical key string.
func (s Signature) Canon() string {
	return strings.Join([]string{s.Kind, s.LocA, s.LocB, s.Outcome}, "|")
}

func (s Signature) String() string { return s.Canon() }

// Finding is one deduplicated corpus entry: the signature plus everything
// needed to re-confirm it later — the campaign configuration that produced
// it (so regress can re-derive the phase-1 target list), the witness seed
// that replays the first confirming run, and the archived witness trace.
type Finding struct {
	Sig Signature `json:"sig"`
	// Bench is the registry benchmark (campaign label) the finding was
	// confirmed on.
	Bench string `json:"bench"`
	// Pair is the rendered target — statement pair, lock pair or atomic
	// block — exactly as the phase-1 report prints it, used to re-locate
	// the target among a regress run's re-derived warnings.
	Pair string `json:"pair"`
	// TargetIndex is the target's index in the discovering campaign's
	// phase-1 report.
	TargetIndex int `json:"targetIndex"`
	// FirstSeenSeed is the base seed of the campaign that first produced
	// the finding; LastSeenSeed is the most recent one. Phase1Trials and
	// MaxSteps complete the configuration regress needs to re-derive the
	// same target list.
	FirstSeenSeed int64 `json:"firstSeenSeed"`
	LastSeenSeed  int64 `json:"lastSeenSeed"`
	Phase1Trials  int   `json:"phase1Trials"`
	MaxSteps      int   `json:"maxSteps,omitempty"`
	// WitnessSeed replays the first confirming trial exactly (the paper's
	// lightweight replay); WitnessTrial is that trial's 0-based index.
	WitnessSeed  int64 `json:"witnessSeed"`
	WitnessTrial int   `json:"witnessTrial"`
	// WitnessTrace is the archived flight recording of the confirming run
	// ("" when capture was disabled), relative to the corpus directory when
	// stored inside it.
	WitnessTrace string `json:"witnessTrace,omitempty"`
	// Hits counts confirmed sightings across all campaigns: one per
	// target run whose trials confirmed the signature (each round of an
	// adaptive campaign runs its targets afresh), not one per trial.
	Hits int64 `json:"hits"`
	// Exceptions lists distinct model-exception kinds observed on
	// confirming runs.
	Exceptions []string `json:"exceptions,omitempty"`
}

// manifest is the versioned MANIFEST.json schema. Provenance records the
// tool build and configuration of the campaign that last saved the corpus
// (nil in corpora written before the field existed — loaders tolerate its
// absence).
type manifest struct {
	V          int             `json:"v"`
	Findings   int             `json:"findings"`
	Coverage   int             `json:"coverage"`
	Provenance *obs.Provenance `json:"provenance,omitempty"`
}

const (
	manifestFile = "MANIFEST.json"
	findingsFile = "findings.jsonl"
	coverageFile = "coverage.jsonl"
	// WitnessSubdir is where campaign witness recordings are archived
	// inside a corpus directory.
	WitnessSubdir = "witnesses"
)

// Store is the in-memory working set of one corpus directory. Open loads
// it, Ingest/IngestCell mutate it, Save persists it atomically.
type Store struct {
	mu  sync.Mutex
	dir string

	byCanon map[string]*Finding
	order   []string // canonical keys in first-report order

	cells     map[string]*CoverageCell
	cellOrder []string // cell keys in first-observation order

	// newSigs counts signatures first ingested through this Store instance
	// (as opposed to loaded from disk) — the campaign-level "new findings"
	// number.
	newSigs   int64
	knownSigs int64

	// truncated reports that loading skipped a partial trailing record
	// (crash mid-write); callers may surface it as a warning.
	truncated bool

	// prov is the provenance stamped into MANIFEST.json on the next Save
	// (loaded from the manifest when opening an existing corpus, overwritten
	// by SetProvenance when a campaign adopts the store).
	prov *obs.Provenance
}

// Open loads the corpus at dir, creating an empty store when the directory
// or its files do not exist yet.
func Open(dir string) (*Store, error) {
	s := NewStore()
	s.dir = dir
	mpath := filepath.Join(dir, manifestFile)
	mb, err := os.ReadFile(mpath)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("corpus: open: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(mb, &m); err != nil {
		return nil, fmt.Errorf("corpus: open: %s: %w", manifestFile, err)
	}
	if m.V > FormatVersion {
		return nil, fmt.Errorf("corpus: unsupported format version %d (this build reads <= %d)", m.V, FormatVersion)
	}
	s.prov = m.Provenance
	findings, trunc1, err := loadJSONL[Finding](filepath.Join(dir, findingsFile))
	if err != nil {
		return nil, err
	}
	for i := range findings {
		f := findings[i]
		k := f.Sig.Canon()
		if _, ok := s.byCanon[k]; ok {
			continue // duplicate line (e.g. partial save overlap): first wins
		}
		s.byCanon[k] = &f
		s.order = append(s.order, k)
	}
	cells, trunc2, err := loadJSONL[CoverageCell](filepath.Join(dir, coverageFile))
	if err != nil {
		return nil, err
	}
	for i := range cells {
		c := cells[i]
		k := c.key()
		if _, ok := s.cells[k]; ok {
			continue // first occurrence wins, as for findings
		}
		s.cells[k] = &c
		s.cellOrder = append(s.cellOrder, k)
	}
	s.truncated = trunc1 || trunc2
	return s, nil
}

// loadJSONL reads a newline-delimited JSON record file (obs.ReadJSONL). A
// missing file is an empty load. A record that fails to parse mid-file is
// an error; a partial *final* line — the footprint of a crash mid-write —
// is skipped, reported through the second return value.
func loadJSONL[T any](path string) ([]T, bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("corpus: load: %w", err)
	}
	defer f.Close()
	var out []T
	torn, err := obs.ReadJSONL(f, filepath.Base(path), func(line []byte) error {
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("corpus: load: %w", err)
	}
	return out, torn, nil
}

// Dir returns the corpus directory ("" for a purely in-memory store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Truncated reports whether loading skipped a partial trailing record.
func (s *Store) Truncated() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.truncated
}

// WitnessDir is the directory campaign witness recordings should be
// captured into so the corpus owns them ("" for an in-memory store, which
// has nowhere durable to put a trace).
func (s *Store) WitnessDir() string {
	if s == nil || s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, WitnessSubdir)
}

// NewStore returns an empty in-memory store (no backing directory); Save
// on it is a no-op. Tests and single-shot campaigns use it for dedup
// without persistence.
func NewStore() *Store {
	return &Store{byCanon: make(map[string]*Finding), cells: make(map[string]*CoverageCell)}
}

// Ingest folds f, which stands for f.Hits confirmed sightings of f.Sig
// (clamped to at least one), into the store and reports whether the
// signature is new to the corpus. It is the one finding fold: a
// single-process campaign ingests each sighting as a batch of one, and the
// fleet coordinator ingests a worker's per-unit aggregate, so both leave
// the same findings, hit counts and session new/known tallies. For a known
// signature the stored entry's Hits grow, LastSeenSeed advances and
// Exceptions are unioned; the original witness is kept (it is the
// regression baseline).
func (s *Store) Ingest(f Finding) (isNew bool) {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hits := max(f.Hits, 1)
	k := f.Sig.Canon()
	if old, ok := s.byCanon[k]; ok {
		old.Hits += hits
		old.LastSeenSeed = f.LastSeenSeed
		old.Exceptions = mergeSorted(old.Exceptions, f.Exceptions)
		s.knownSigs += hits
		return false
	}
	nf := f
	nf.Hits = hits
	nf.Exceptions = mergeSorted(nil, f.Exceptions)
	s.byCanon[k] = &nf
	s.order = append(s.order, k)
	s.newSigs++
	s.knownSigs += hits - 1
	return true
}

// AttachWitness records the archived witness trace path for sig's finding.
// A path under the corpus directory is stored relative to it, so the corpus
// stays relocatable; any other path (a -tracedir outside the corpus) is
// stored absolute, since WitnessPath resolves relative paths against the
// corpus directory, not the working directory the capture ran in.
func (s *Store) AttachWitness(sig Signature, path string) {
	if s == nil || path == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.byCanon[sig.Canon()]
	if !ok {
		return
	}
	if s.dir != "" {
		if rel, err := filepath.Rel(s.dir, path); err == nil && !strings.HasPrefix(rel, "..") {
			path = rel
		} else if abs, err := filepath.Abs(path); err == nil {
			path = abs
		}
	}
	f.WitnessTrace = path
}

// WitnessPath resolves a finding's stored witness trace to an on-disk path
// ("" when the finding has no witness).
func (s *Store) WitnessPath(f Finding) string {
	if f.WitnessTrace == "" {
		return ""
	}
	if filepath.IsAbs(f.WitnessTrace) || s == nil || s.dir == "" {
		return f.WitnessTrace
	}
	return filepath.Join(s.dir, f.WitnessTrace)
}

// Findings returns the corpus entries in first-report order (loaded entries
// first, then new ones).
func (s *Store) Findings() []Finding {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Finding, 0, len(s.order))
	for _, k := range s.order {
		out = append(out, *s.byCanon[k])
	}
	return out
}

// Len returns the number of distinct signatures.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// SetProvenance records the campaign provenance to stamp into MANIFEST.json
// on the next Save. A nil store ignores it.
func (s *Store) SetProvenance(p obs.Provenance) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prov = &p
}

// Provenance returns the provenance of the campaign that last saved (or
// adopted) this corpus, nil when none was recorded.
func (s *Store) Provenance() *obs.Provenance {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prov == nil {
		return nil
	}
	p := *s.prov
	return &p
}

// Counts returns this session's (new, known) sighting tallies — the
// dedup-rate numerator and denominator.
func (s *Store) Counts() (newSigs, knownSigs int64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.newSigs, s.knownSigs
}

// BenchSignatures returns the number of distinct signatures recorded for
// one benchmark — the adaptive allocator's per-target discovery state.
func (s *Store) BenchSignatures(bench string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.byCanon {
		if f.Bench == bench {
			n++
		}
	}
	return n
}

// Save persists the store to its directory: findings.jsonl, coverage.jsonl
// and the versioned manifest, each written to a temp file and renamed, so a
// crash leaves either the old or the new state, never a torn one. Save on a
// directory-less store is a no-op.
func (s *Store) Save() error {
	if s == nil || s.dir == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("corpus: save: %w", err)
	}
	var fbuf bytes.Buffer
	enc := json.NewEncoder(&fbuf)
	for _, k := range s.order {
		if err := enc.Encode(s.byCanon[k]); err != nil {
			return fmt.Errorf("corpus: save: %w", err)
		}
	}
	if err := writeAtomic(filepath.Join(s.dir, findingsFile), fbuf.Bytes()); err != nil {
		return err
	}
	var cbuf bytes.Buffer
	enc = json.NewEncoder(&cbuf)
	for _, k := range s.cellOrder {
		if err := enc.Encode(s.cells[k]); err != nil {
			return fmt.Errorf("corpus: save: %w", err)
		}
	}
	if err := writeAtomic(filepath.Join(s.dir, coverageFile), cbuf.Bytes()); err != nil {
		return err
	}
	mb, err := json.MarshalIndent(manifest{
		V: FormatVersion, Findings: len(s.order), Coverage: len(s.cellOrder),
		Provenance: s.prov,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("corpus: save: %w", err)
	}
	return writeAtomic(filepath.Join(s.dir, manifestFile), append(mb, '\n'))
}

// writeAtomic writes data to path via a temp file + rename.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("corpus: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("corpus: save: %w", err)
	}
	return nil
}

// mergeSorted folds add into base, deduplicating and keeping sorted order.
func mergeSorted(base, add []string) []string {
	if len(add) == 0 {
		return base
	}
	seen := make(map[string]bool, len(base)+len(add))
	for _, s := range base {
		seen[s] = true
	}
	for _, s := range add {
		seen[s] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
