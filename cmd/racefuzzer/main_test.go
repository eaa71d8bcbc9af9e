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
	"racefuzzer/internal/harness"
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

// childArgsEnv carries the newline-separated arguments a test's child
// process runs the command with.
const childArgsEnv = "RACEFUZZER_CHILD_ARGS"

// runIfChild makes a child process started by childCommand run the command
// and exit with its status; in the parent test it returns.
func runIfChild() {
	if args := os.Getenv(childArgsEnv); args != "" {
		os.Args = append([]string{"racefuzzer"}, strings.Split(args, "\n")...)
		os.Exit(run())
	}
}

// childCommand re-executes the test binary as the command with args; test
// names the calling test, which must start with runIfChild.
func childCommand(test string, args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, "\n"))
	return cmd
}

// TestExitPathClosesRunLog runs a replay of a pair index phase 1 never
// reports, which fails with exit 2 after the -json log is open. The log
// must still hold the provenance header and the phase-1 records as whole
// JSON lines.
func TestExitPathClosesRunLog(t *testing.T) {
	runIfChild()
	log := filepath.Join(t.TempDir(), "r.jsonl")
	cmd := childCommand("TestExitPathClosesRunLog", "-bench", "figure1", "-pair", "99", "-replay", "1", "-json", log)
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

// TestPairIsChecked: -pair selects one phase-1 race pair, so an index phase
// 1 never reports, or a pipeline with no race pairs to select from, is a
// usage error (exit status 2) instead of a run that fuzzes nothing.
func TestPairIsChecked(t *testing.T) {
	runIfChild()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "figure1", "-pair", "99"}, "racefuzzer: -pair 99 is not a phase-1 pair index (found 2 pair(s))\n"},
		{[]string{"-bench", "figure1", "-pair", "0", "-deadlocks"}, "racefuzzer: -pair cannot be combined with"},
		{[]string{"-bench", "figure1", "-pair", "0", "-atomicity"}, "racefuzzer: -pair cannot be combined with"},
		{[]string{"-budget", "10", "-pair", "0"}, "racefuzzer: -pair cannot be combined with"},
	} {
		cmd := childCommand("TestPairIsChecked", tc.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: child %v, want exit status 2", tc.args, err)
		}
		if !strings.HasPrefix(stderr.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want it to start %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestRegressWithoutWitnesses: a corpus whose findings carry no archived
// witness passes -regress on the replay checks alone, and the output must
// say so instead of claiming the findings matched their witnesses.
func TestRegressWithoutWitnesses(t *testing.T) {
	runIfChild()
	src := filepath.Join("..", "..", "internal", "corpus", "testdata", "cli")
	dir := t.TempDir()
	for _, name := range []string{"MANIFEST.json", "coverage.jsonl", "findings.jsonl"} {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if name == "findings.jsonl" {
			var out []string
			for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				var f map[string]any
				if err := json.Unmarshal([]byte(line), &f); err != nil {
					t.Fatal(err)
				}
				delete(f, "witnessTrace")
				b, _ := json.Marshal(f)
				out = append(out, string(b))
			}
			data = []byte(strings.Join(out, "\n") + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := childCommand("TestRegressWithoutWitnesses", "-corpusdir", dir, "-regress").Output()
	if err != nil {
		t.Fatalf("regress: %v\n%s", err, out)
	}
	got := string(out)
	if strings.Count(got, ": "+harness.NoWitnessDetail+"\n") != 2 {
		t.Errorf("want both ok lines to say %q:\n%s", harness.NoWitnessDetail, got)
	}
	if strings.Contains(got, "matched their witnesses") || !strings.Contains(got, "2 had no archived witness") {
		t.Errorf("summary misreports the missing witnesses:\n%s", got)
	}
}
