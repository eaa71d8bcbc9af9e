// Package analytics is the offline campaign analytics engine: it ingests a
// campaign's artifacts — the JSONL run log written by obs.JSONLSink, the
// persistent corpus directory written by corpus.Store, and optionally the
// flight-recording witnesses archived inside it — into one unified campaign
// model, and computes the questions a long-running campaign owner asks:
//
//   - discovery curves: cumulative new signatures and new coverage cells
//     against trials spent, globally and per target;
//   - trials-to-first-confirm distributions across targets;
//   - dedup-rate trends per adaptive-allocation round;
//   - a coverage-frontier summary with a Chao1-style species-richness
//     estimate of the signatures still undiscovered;
//   - a bandit audit: per round, the budget each target was allocated
//     against the discovery yield it returned, flagging starved-but-yielding
//     and fed-but-dry targets;
//   - a reconciliation table cross-checking the log's totals against the
//     corpus manifest, so a disagreement between the two artifact trails is
//     surfaced instead of silently absorbed.
//
// The whole analysis is deterministic: byte-identical inputs produce a
// byte-identical markdown/CSV report (no timestamps, no map-order
// dependence, paths reduced to basenames), which is what lets CI golden-test
// report bytes across repeat runs.
package analytics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/obs"
)

// Campaign is the unified model of one campaign's artifacts.
type Campaign struct {
	// LogName and CorpusName are display basenames of the ingested artifacts
	// ("" when the source was not provided). Basenames, not full paths: two
	// loads of byte-identical artifacts from different directories must
	// analyze to byte-identical reports.
	LogName    string
	CorpusName string

	// Provenance is the run log's header record (nil for logs written before
	// the header existed); CorpusProvenance is MANIFEST.json's.
	Provenance       *obs.Provenance
	CorpusProvenance *obs.Provenance

	// Records is the run log in Seq order.
	Records []obs.RunRecord
	// LogTruncated reports a partial trailing log line that was skipped.
	LogTruncated bool

	// Findings and Cells are the corpus working set; ManifestFindings and
	// ManifestCoverage are the counts MANIFEST.json claims (the
	// reconciliation table cross-checks both against the log).
	Findings         []corpus.Finding
	Cells            []corpus.CoverageCell
	ManifestFindings int
	ManifestCoverage int
	CorpusTruncated  bool

	// Witnesses summarizes the flight recordings archived under the corpus
	// witnesses directory, keyed by pipeline kind.
	Witnesses []KindCount
}

// KindCount is a (name, count) pair used for per-kind breakdowns.
type KindCount struct {
	Name  string
	Count int
}

// Source names a campaign's artifacts for Load.
type Source struct {
	// Log is the JSONL run log path ("" = no log).
	Log string
	// CorpusDir is the corpus directory ("" = no corpus).
	CorpusDir string
}

// Load ingests the named artifacts. At least one of Log and CorpusDir must
// be set.
func Load(src Source) (*Campaign, error) {
	if src.Log == "" && src.CorpusDir == "" {
		return nil, fmt.Errorf("analytics: no artifacts to load (need a run log or a corpus directory)")
	}
	c := &Campaign{}
	if src.Log != "" {
		recs, prov, trunc, err := LoadLog(src.Log)
		if err != nil {
			return nil, err
		}
		c.LogName = filepath.Base(src.Log)
		c.Records, c.Provenance, c.LogTruncated = recs, prov, trunc
	}
	if src.CorpusDir != "" {
		if err := c.loadCorpus(src.CorpusDir); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// notRunLogs are the JSONL files a corpus directory holds that are not run
// logs: the corpus's findings and coverage, and the fleet span trail that
// campaign directories written by older builds still carry.
var notRunLogs = map[string]bool{
	"findings.jsonl":   true,
	"coverage.jsonl":   true,
	"fleetspans.jsonl": true,
}

// LoadDir ingests a campaign directory: the run log is <dir>/run.jsonl or,
// failing that, the lexically first other *.jsonl file in dir that is not
// listed in notRunLogs; the corpus is dir itself when it holds a
// MANIFEST.json, else <dir>/corpus if that does. Either artifact may be
// absent, but not both.
func LoadDir(dir string) (*Campaign, error) {
	src := Source{}
	if _, err := os.Stat(filepath.Join(dir, "run.jsonl")); err == nil {
		src.Log = filepath.Join(dir, "run.jsonl")
	} else if names, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(names) > 0 {
		sort.Strings(names)
		for _, n := range names {
			if !notRunLogs[filepath.Base(n)] {
				src.Log = n
				break
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err == nil {
		src.CorpusDir = dir
	} else if _, err := os.Stat(filepath.Join(dir, "corpus", "MANIFEST.json")); err == nil {
		src.CorpusDir = filepath.Join(dir, "corpus")
	}
	if src.Log == "" && src.CorpusDir == "" {
		return nil, fmt.Errorf("analytics: %s: no run log (*.jsonl) or corpus (MANIFEST.json) found", dir)
	}
	return Load(src)
}

// LoadLog reads a JSONL run log: an optional provenance header on line one,
// then one RunRecord per line, returned in Seq order. A partial trailing
// line — the footprint of a crash mid-write — is skipped and flagged, the
// same tolerance corpus loading applies.
func LoadLog(path string) ([]obs.RunRecord, *obs.Provenance, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("analytics: %w", err)
	}
	defer f.Close()
	var (
		recs  []obs.RunRecord
		prov  *obs.Provenance
		first = true
	)
	torn, err := obs.ReadJSONL(f, filepath.Base(path), func(line []byte) error {
		if first {
			first = false
			if p, ok := obs.ParseProvenanceLine(line); ok {
				prov = p
				return nil
			}
		}
		var rec obs.RunRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, false, fmt.Errorf("analytics: %w", err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs, prov, torn, nil
}

// loadCorpus folds a corpus directory into the model.
func (c *Campaign) loadCorpus(dir string) error {
	st, err := corpus.Open(dir)
	if err != nil {
		return fmt.Errorf("analytics: %w", err)
	}
	c.CorpusName = filepath.Base(dir)
	c.Findings = st.Findings()
	c.Cells = st.Coverage()
	c.CorpusProvenance = st.Provenance()
	c.CorpusTruncated = st.Truncated()
	// The manifest's own counts, read directly: Open would have failed on a
	// malformed manifest, so a decode error here only means the directory is
	// corpus-less (fresh) and the counts stay zero.
	var m struct {
		Findings int `json:"findings"`
		Coverage int `json:"coverage"`
	}
	if b, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json")); err == nil {
		if json.Unmarshal(b, &m) == nil {
			c.ManifestFindings, c.ManifestCoverage = m.Findings, m.Coverage
		}
	}
	c.Witnesses = scanWitnesses(filepath.Join(dir, corpus.WitnessSubdir))
	return nil
}

// scanWitnesses summarizes the flight recordings under dir by pipeline kind
// (sorted by kind name for determinism). Unreadable recordings are skipped:
// witness metadata is auxiliary, never load-bearing.
func scanWitnesses(dir string) []KindCount {
	names, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	byKind := map[string]int{}
	for _, n := range names {
		rec, err := flightrec.LoadFile(n)
		if err != nil {
			continue
		}
		kind := rec.Header.Kind
		if kind == "" {
			kind = "unknown"
		}
		byKind[kind]++
	}
	return sortedKindCounts(byKind)
}

// sortedKindCounts renders a count map as a name-sorted slice.
func sortedKindCounts(m map[string]int) []KindCount {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]KindCount, 0, len(keys))
	for _, k := range keys {
		out = append(out, KindCount{Name: k, Count: m[k]})
	}
	return out
}
