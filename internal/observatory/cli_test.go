package observatory

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/obs"
)

// TestCLIWiring drives the shared campaign runtime the way a command does:
// the capture flags land in the probes, the corpus lends witness capture
// its directory, the run log opens on the provenance of the set flags, the
// corpus manifest carries the same provenance, metrics join the run log's
// sink only on request (not by -http) and profile into the observatory's
// collector when there is one, and Finish closes the log and saves the
// corpus.
func TestCLIWiring(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		metrics bool
	}{
		{"plain", nil, false},
		{"metrics", nil, true},
		{"http", []string{"-http", "127.0.0.1:0"}, false},
		{"metrics http", []string{"-http", "127.0.0.1:0"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log := filepath.Join(dir, "run.jsonl")
			fs := flag.NewFlagSet("tool", flag.ContinueOnError)
			c := NewCLI("tool", fs)
			args := append([]string{"-corpusdir", filepath.Join(dir, "c"), "-json", log, "-perfdir", "p"}, tc.args...)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			if err := c.OpenCorpus(); err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if c.Probes.TraceDir != c.Store.WitnessDir() || c.Probes.PerfDir != "p" {
				t.Fatalf("capture probes = %q, %q", c.Probes.TraceDir, c.Probes.PerfDir)
			}
			if err := c.Start("label", tc.metrics); err != nil {
				t.Fatal(err)
			}
			_, fanned := c.Probes.Sink.(obs.MultiSink)
			if c.Probes.Sink == nil || (c.Server != nil) != (tc.args != nil) || fanned != tc.metrics {
				t.Fatalf("wiring: sink %T, server %v", c.Probes.Sink, c.Server)
			}
			if (c.Server != nil || tc.metrics) != (c.Probes.Prof != nil) || (c.Server != nil && c.Probes.Prof != c.Server.Prof()) {
				t.Fatal("probes do not feed the observatory")
			}
			core.DetectPotentialRaces(bench.MustByName("figure1").New(), core.Options{Seed: 1, Phase1Trials: 2, Probes: c.Probes})
			if code := c.Finish(); code != 0 {
				t.Fatalf("Finish = %d", code)
			}

			f, err := os.Open(log)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc := bufio.NewScanner(f)
			var header struct{ Provenance obs.Provenance }
			if !sc.Scan() || json.Unmarshal(sc.Bytes(), &header) != nil {
				t.Fatal("run log has no header")
			}
			records := 0
			for sc.Scan() {
				records++
			}
			if records != 2 {
				t.Fatalf("run log has %d records, want 2", records)
			}
			want := c.Prov
			if header.Provenance != want || want.Tool != "tool" || want.Label != "label" || want.Config == "" {
				t.Fatalf("header provenance %+v, want %+v", header.Provenance, want)
			}
			if _, err := os.Stat(filepath.Join(dir, "c", "MANIFEST.json")); err != nil {
				t.Fatalf("corpus not saved: %v", err)
			}
			if got := c.Store.Provenance(); got == nil || *got != want {
				t.Fatalf("manifest provenance %+v, want %+v", got, want)
			}
		})
	}
}
