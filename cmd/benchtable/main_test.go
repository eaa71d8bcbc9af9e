package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/harness"
)

// childEnv carries the newline-separated arguments a child process of
// these tests runs the command with.
const childEnv = "BENCHTABLE_EXIT_CHILD_ARGS"

func TestMain(m *testing.M) {
	if args := os.Getenv(childEnv); args != "" {
		os.Args = append([]string{"benchtable"}, strings.Split(args, "\n")...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runChild runs the command with args in a child process and returns its
// exit status and stderr.
func runChild(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childEnv+"="+strings.Join(args, "\n"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("child: %v", err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestUnknownNameIsUsageError: a -names entry that names no benchmark is a
// usage error, one line on stderr and exit status 2, not a panic.
func TestUnknownNameIsUsageError(t *testing.T) {
	code, stderr := runChild(t, "-names", "figure1,nope")
	if code != 2 {
		t.Fatalf("child exit status %d, want 2; stderr:\n%s", code, stderr)
	}
	want := `benchtable: unknown benchmark "nope" (have cache4j, `
	if !strings.HasPrefix(stderr, want) || strings.Count(stderr, "\n") != 1 || strings.Contains(stderr, "goroutine") {
		t.Fatalf("stderr = %q, want one line starting %q", stderr, want)
	}
}

// TestExitPathClosesRunLog runs a -verify that fails (two trials confirm too
// little of figure1's ground truth), which exits 1 after the -json log is
// open. The log must still hold the provenance header and every run record
// as whole JSON lines.
func TestExitPathClosesRunLog(t *testing.T) {
	log := filepath.Join(t.TempDir(), "v.jsonl")
	if code, _ := runChild(t, "-names", "figure1", "-trials", "2", "-verify", "-json", log); code != 1 {
		t.Fatalf("child exit status %d, want 1", code)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("run log empty or cut mid-line (%d bytes)", len(data))
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not JSON: %q", i+1, line)
		}
	}
	if len(lines) < 2 {
		t.Fatalf("run log has %d line(s), want the header and run records", len(lines))
	}
}

// TestCorpusWitnessesRegress: a Table 1 run with -corpusdir archives a
// witness for every finding under the corpus, and the corpus passes
// racefuzzer -regress, every finding compared against its witness. A
// corpus that ends in a torn record is loaded with a warning.
func TestCorpusWitnessesRegress(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "c")
	if code, stderr := runChild(t, "-names", "figure1,figure2", "-trials", "20", "-timing-runs", "1", "-corpusdir", dir); code != 0 {
		t.Fatalf("child exit status %d: %s", code, stderr)
	}
	store, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := store.Findings()
	if len(findings) == 0 {
		t.Fatal("no findings archived")
	}
	for _, f := range findings {
		w := store.WitnessPath(f)
		if w == "" || !strings.HasPrefix(w, store.WitnessDir()) {
			t.Fatalf("%s: witness %q, want one under %s", f.Sig.Canon(), w, store.WitnessDir())
		}
	}
	results, ok := harness.Regress(store)
	if !ok || len(results) != len(findings) {
		t.Fatalf("regress over %d finding(s): ok=%v %v", len(findings), ok, results)
	}

	f, err := os.OpenFile(filepath.Join(dir, "findings.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"sig":`)
	f.Close()
	code, stderr := runChild(t, "-names", "figure1", "-trials", "2", "-timing-runs", "1", "-corpusdir", dir)
	if code != 0 || !strings.Contains(stderr, "benchtable: warning: corpus "+dir+" ended in a partial record") {
		t.Fatalf("torn corpus: exit %d, stderr %q, want the truncation warning", code, stderr)
	}
}
