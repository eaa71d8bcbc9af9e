package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exitChildEnv carries the newline-separated arguments the child process of
// TestExitPathClosesRunLog runs the command with.
const exitChildEnv = "BENCHTABLE_EXIT_CHILD_ARGS"

// TestExitPathClosesRunLog runs a -verify that fails (two trials confirm too
// little of figure1's ground truth), which exits 1 after the -json log is
// open. The log must still hold the provenance header and every run record
// as whole JSON lines.
func TestExitPathClosesRunLog(t *testing.T) {
	if args := os.Getenv(exitChildEnv); args != "" {
		os.Args = append([]string{"benchtable"}, strings.Split(args, "\n")...)
		os.Exit(run())
	}
	log := filepath.Join(t.TempDir(), "v.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestExitPathClosesRunLog$")
	cmd.Env = append(os.Environ(), exitChildEnv+"="+strings.Join([]string{
		"-names", "figure1", "-trials", "2", "-verify", "-json", log,
	}, "\n"))
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("child: %v, want exit status 1", err)
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
