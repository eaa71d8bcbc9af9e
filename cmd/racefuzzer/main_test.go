package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
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
// 1 never reports, or a mode with no race pair to select (another pipeline,
// the budgeted campaign, or -regress, which replays every finding), is a
// usage error (exit status 2) instead of a run that ignores it.
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
		{[]string{"-corpusdir", t.TempDir(), "-regress", "-pair", "5"}, "racefuzzer: -pair cannot be combined with"},
		{[]string{"-bench", "figure1", "-phase1", "-4"}, "racefuzzer: -phase1 -4 is negative\n"},
		{[]string{"-bench", "figure1", "-trials", "-5"}, "racefuzzer: -trials -5 is negative\n"},
		{[]string{"-bench", "figure1", "-budget", "-5"}, "racefuzzer: -budget -5 is negative\n"},
		{[]string{"-budget", "20", "-rounds", "-2"}, "racefuzzer: -rounds -2 is negative\n"},
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

// TestTrialsDefaultPrinted: a non-positive -trials runs the pipeline
// default, and the phase-2 header must print the count the verdicts under
// it were measured with.
func TestTrialsDefaultPrinted(t *testing.T) {
	runIfChild()
	out, err := childCommand("TestTrialsDefaultPrinted", "-bench", "figure1", "-trials", "0").Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	got := string(out)
	if !strings.Contains(got, "phase 2 (RaceFuzzer, 100 runs per pair):\n") {
		t.Errorf("phase-2 header does not print the default trial count:\n%s", got)
	}
	if !strings.Contains(got, "/100 runs)") {
		t.Errorf("verdicts not measured at 100 runs:\n%s", got)
	}
}

// TestCaptureLines: with -tracedir and -perfdir every confirmed verdict,
// race or atomicity, is followed by exactly one witness-trace line and one
// perf-timeline line, each naming a saved file; unconfirmed verdicts get
// neither.
func TestCaptureLines(t *testing.T) {
	runIfChild()
	for _, args := range [][]string{
		{"-bench", "figure1"},
		{"-bench", "weblech", "-atomicity"},
	} {
		traces, perfs := t.TempDir(), t.TempDir()
		args = append(args, "-tracedir", traces, "-perfdir", perfs)
		out, err := childCommand("TestCaptureLines", args...).Output()
		if err != nil {
			t.Fatalf("%v: child: %v\n%s", args, err, out)
		}
		// Group the six-space detail lines under the verdict above them.
		var verdicts []string
		details := map[int][]string{}
		for _, line := range strings.Split(string(out), "\n") {
			switch {
			case strings.HasPrefix(line, "      "):
				details[len(verdicts)-1] = append(details[len(verdicts)-1], strings.TrimSpace(line))
			case strings.HasPrefix(line, "  "):
				verdicts = append(verdicts, line)
			}
		}
		confirmed := 0
		for i, v := range verdicts {
			isReal := strings.Contains(v, ": REAL ")
			if isReal {
				confirmed++
			}
			for _, prefix := range []string{"witness trace: ", "perf timeline: "} {
				var paths []string
				for _, d := range details[i] {
					if rest, ok := strings.CutPrefix(d, prefix); ok {
						path, _, _ := strings.Cut(rest, " (")
						paths = append(paths, path)
					}
				}
				if !isReal {
					if len(paths) != 0 {
						t.Errorf("%v: unconfirmed %q has %q lines %v", args, v, prefix, paths)
					}
					continue
				}
				if len(paths) != 1 {
					t.Errorf("%v: confirmed %q has %d %q lines, want 1", args, v, len(paths), prefix)
					continue
				}
				if _, err := os.Stat(paths[0]); err != nil {
					t.Errorf("%v: %q names a missing file: %v", args, prefix, err)
				}
			}
		}
		if confirmed == 0 {
			t.Errorf("%v: no confirmed verdict; the check is vacuous:\n%s", args, out)
		}
	}
}

// metricRows indexes the "name value" rows of the metric table titled
// title in out (empty when out has no such table).
func metricRows(out, title string) map[string]string {
	rows := map[string]string{}
	_, table, found := strings.Cut(out, "\n"+title+"\n")
	if !found {
		return rows
	}
	lines := strings.Split(table, "\n")
	for _, line := range lines[2:] { // past the header and the rule
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		rows[fields[0]] = strings.Join(fields[1:], " ")
	}
	return rows
}

// TestMetricsTables: -metrics prints the campaign metrics table folded
// from the run records and the scheduler profile's count table, whose
// switches and per-kind action rows are the figure 1 campaign's (the
// counters golden in internal/core pins the same numbers). Without
// -timing the run records carry no wall time, so only the scheduler table
// reports wall.seconds.
func TestMetricsTables(t *testing.T) {
	runIfChild()
	out, err := childCommand("TestMetricsTables", "-bench", "figure1", "-phase1", "3", "-trials", "20", "-seed", "7", "-metrics").Output()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	campaign, sched := metricRows(string(out), "campaign metrics"), metricRows(string(out), "scheduler profile")
	for name, want := range map[string]string{"runs.total": "43", "sched.steps": "710", "runs.race": "20"} {
		if campaign[name] != want {
			t.Errorf("campaign metrics %s = %q, want %q:\n%s", name, campaign[name], want, out)
		}
	}
	for name, want := range map[string]string{
		"trials": "43", "rounds": "790", "grants": "710", "switches": "241",
		"actions.postpone": "52", "actions.resume": "40", "actions.livelock-break": "0",
		"actions.race": "20", "actions.violation": "0",
	} {
		if sched[name] != want {
			t.Errorf("scheduler profile %s = %q, want %q:\n%s", name, sched[name], want, out)
		}
	}
	if _, ok := campaign["wall.seconds"]; ok {
		t.Errorf("campaign metrics report wall.seconds without -timing:\n%s", out)
	}
	if w, ok := sched["wall.seconds"]; !ok || w == "0" {
		t.Errorf("scheduler profile wall.seconds = %q:\n%s", w, out)
	}
}

// TestFleetMetricsWithoutSchedulerTable: a fleet coordinator runs no trial
// itself and its workers' records carry no wall time without -timing, so
// its -metrics output is the campaign metrics table alone, with no
// scheduler table and no wall.seconds row.
func TestFleetMetricsWithoutSchedulerTable(t *testing.T) {
	runIfChild()
	coord := childCommand("TestFleetMetricsWithoutSchedulerTable",
		"-bench", "figure1", "-budget", "40", "-rounds", "1", "-seed", "3", "-metrics", "-coordinate", "127.0.0.1:0")
	var stdout strings.Builder
	coord.Stdout = &stdout
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill() //nolint:errcheck // already exited on the success path
	var logged strings.Builder
	sc := bufio.NewScanner(stderr)
	addr := ""
	for addr == "" && sc.Scan() {
		logged.WriteString(sc.Text() + "\n")
		if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		t.Fatalf("coordinator printed no address:\n%s", logged.String())
	}
	drained := make(chan struct{})
	go func() {
		io.Copy(&logged, stderr) //nolint:errcheck // diagnostics only
		close(drained)
	}()
	worker := childCommand("TestFleetMetricsWithoutSchedulerTable", "-worker", addr)
	if out, err := worker.CombinedOutput(); err != nil {
		t.Fatalf("worker: %v\n%s", err, out)
	}
	<-drained
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, logged.String())
	}
	out := stdout.String()
	campaign := metricRows(out, "campaign metrics")
	if campaign["runs.total"] == "" || campaign["runs.total"] == "0" {
		t.Fatalf("no campaign metrics table:\n%s", out)
	}
	if strings.Contains(out, "scheduler profile") || strings.Contains(out, "wall.seconds") {
		t.Errorf("fleet coordinator prints a scheduler table or wall.seconds:\n%s", out)
	}
}
