package corpus

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpen writes fuzzed MANIFEST.json, findings.jsonl and coverage.jsonl
// files into a corpus directory and opens it. Seeded with a corpus the CLI
// wrote (testdata/cli: a figure1 budget campaign plus a cache4j atomicity
// run) and a copy with torn final lines. Open must return a store or an
// error, never panic, and an accepted store must save and reopen to the
// same findings and coverage.
func FuzzOpen(f *testing.F) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "cli", name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	manifest, findings, coverage := read(manifestFile), read(findingsFile), read(coverageFile)
	f.Add(manifest, findings, coverage)
	f.Add(manifest, append(findings, `{"sig":{"kind":"ra`...), append(coverage, `{"sig"`...))
	f.Fuzz(func(t *testing.T, manifest, findings, coverage []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{manifestFile: manifest, findingsFile: findings, coverageFile: coverage} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		if err := s.Save(); err != nil {
			t.Fatalf("save of an accepted corpus: %v", err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen of a saved corpus: %v", err)
		}
		if !reflect.DeepEqual(again.Findings(), s.Findings()) || !reflect.DeepEqual(again.Coverage(), s.Coverage()) {
			t.Fatalf("saved corpus reopens differently:\n%+v\n%+v\nvs\n%+v\n%+v", again.Findings(), again.Coverage(), s.Findings(), s.Coverage())
		}
	})
}
