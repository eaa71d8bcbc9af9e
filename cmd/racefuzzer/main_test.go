package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
)

// TestRealRaceMatchesPolicy: a replay prints its race lines from the
// recording's race actions, and they must read exactly as the live policy's
// findings of the same run.
func TestRealRaceMatchesPolicy(t *testing.T) {
	for _, name := range []string{"figure2", "weblech"} {
		b, _ := bench.ByName(name)
		o := core.Options{Label: b.Name, MaxSteps: b.MaxSteps}
		pair := core.DetectPotentialRaces(b.New(), core.Options{Seed: 1, Phase1Trials: b.Phase1Trials, MaxSteps: b.MaxSteps})[0]
		for _, seed := range []int64{2, 3} {
			run := core.FuzzRun(b.New(), pair, seed, o)
			_, _, rec := core.Record(b.New(), core.NewRaceTarget(pair), seed, o)
			var got []string
			for _, a := range rec.Actions() {
				if a.Kind == "race" {
					got = append(got, realRace(a).String())
				}
			}
			if len(got) != len(run.Races) || len(got) == 0 {
				t.Fatalf("%s seed %d: %d race actions, %d policy races", name, seed, len(got), len(run.Races))
			}
			for i, r := range run.Races {
				if got[i] != r.String() {
					t.Fatalf("%s seed %d race %d:\n  replay: %s\n  policy: %s", name, seed, i, got[i], r)
				}
			}
		}
	}
}

// exitChildEnv carries the newline-separated arguments the child process of
// TestExitPathClosesRunLog runs the command with.
const exitChildEnv = "RACEFUZZER_EXIT_CHILD_ARGS"

// TestExitPathClosesRunLog runs a replay of a pair index phase 1 never
// reports, which fails with exit 2 after the -json log is open. The log
// must still hold the provenance header and the phase-1 records as whole
// JSON lines.
func TestExitPathClosesRunLog(t *testing.T) {
	if args := os.Getenv(exitChildEnv); args != "" {
		os.Args = append([]string{"racefuzzer"}, strings.Split(args, "\n")...)
		os.Exit(run())
	}
	log := filepath.Join(t.TempDir(), "r.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestExitPathClosesRunLog$")
	cmd.Env = append(os.Environ(), exitChildEnv+"="+strings.Join([]string{
		"-bench", "figure1", "-pair", "99", "-replay", "1", "-json", log,
	}, "\n"))
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("child: %v, want exit status 2", err)
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
		t.Fatalf("run log has %d line(s), want the header and phase-1 records", len(lines))
	}
}
