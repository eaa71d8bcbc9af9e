package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
)

// startCoordinator boots a coordinator on a loopback port and tears it down
// with the test.
func startCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	c := NewCoordinator(cfg)
	if err := c.Start(); err != nil {
		t.Fatalf("coordinator start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c
}

// TestFleetCampaignMatchesSingleProcess is the determinism contract: a
// coordinator plus two workers must produce the same campaign rows, the same
// corpus findings and coverage, and byte-identical witness recordings as
// the in-process RunAdaptiveCampaign at the same budget.
func TestFleetCampaignMatchesSingleProcess(t *testing.T) {
	testFleetMatchesSingleProcess(t, false)
}

// TestFleetCampaignMatchesSingleProcessTimed re-runs the determinism
// contract with a run-record sink and Timing on: the coordinator must hand
// Timing to its workers, so every streamed record carries its wall-clock
// durationNs, and timing must not perturb any corpus artifact.
func TestFleetCampaignMatchesSingleProcessTimed(t *testing.T) {
	testFleetMatchesSingleProcess(t, true)
}

func testFleetMatchesSingleProcess(t *testing.T, timed bool) {
	names := []string{"figure1", "vector"}
	opt := func(store *corpus.Store) harness.CampaignOptions {
		return harness.CampaignOptions{Seed: 7, Budget: 40, Rounds: 2, Corpus: store}
	}

	// The single-process reference, witnesses archived in its corpus. Both
	// campaigns write their corpus at the same path, so the run records'
	// witness paths agree; the reference corpus is moved aside after its run.
	base := t.TempDir()
	dir := filepath.Join(base, "corpus")
	ref, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	refOpt := opt(ref)
	refOpt.TraceDir = ref.WitnessDir()
	var refLog, fleetLog bytes.Buffer
	refSink, fleetSink := obs.NewJSONLSink(&refLog), obs.NewJSONLSink(&fleetLog)
	if !timed {
		refOpt.Sink = refSink
	}
	refRows := harness.RunAdaptiveCampaign(names, refOpt)
	refWitnessDir := filepath.Join(base, "ref-witnesses")
	if err := os.Rename(ref.WitnessDir(), refWitnessDir); err != nil {
		t.Fatal(err)
	}

	// The fleet run: same campaign options, but every unit executes on one
	// of two worker loops and reaches the corpus through the merge protocol.
	store, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CoordinatorConfig{Store: store, LeaseTTL: 5 * time.Second}
	sink := &recordingSink{}
	if timed {
		cfg.Sink, cfg.Timing = sink, true
	} else {
		cfg.Sink = fleetSink
	}
	coord := startCoordinator(t, cfg)
	rows := runFleet(t, coord, names, opt(store), 2, WorkerOptions{})

	if !reflect.DeepEqual(rows, refRows) {
		t.Fatalf("fleet campaign rows diverge from single-process:\n got: %+v\nwant: %+v", rows, refRows)
	}
	if !reflect.DeepEqual(store.Findings(), ref.Findings()) {
		t.Fatalf("fleet corpus findings diverge:\n got: %+v\nwant: %+v", store.Findings(), ref.Findings())
	}
	if !reflect.DeepEqual(store.Coverage(), ref.Coverage()) {
		t.Fatal("fleet coverage map diverges from single-process")
	}

	// Witness recordings: same file set, same bytes, despite having been
	// re-recorded by the coordinator from the workers' findings.
	refWitness := listDir(t, refWitnessDir)
	fleetWitness := listDir(t, store.WitnessDir())
	if !reflect.DeepEqual(refWitness, fleetWitness) {
		t.Fatalf("witness file sets differ:\n got: %v\nwant: %v", fleetWitness, refWitness)
	}
	if len(refWitness) == 0 {
		t.Fatal("reference campaign archived no witnesses; test proves nothing")
	}
	for _, name := range refWitness {
		want, _ := os.ReadFile(filepath.Join(refWitnessDir, name))
		got, _ := os.ReadFile(filepath.Join(store.WitnessDir(), name))
		if string(want) != string(got) {
			t.Fatalf("witness %s differs between fleet and single-process", name)
		}
	}

	st := coord.status()
	if st.UnitsDone == 0 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("fleet status after campaign: %+v", st)
	}

	if !timed {
		// The run logs: every record relabeled from the coordinator's own
		// verdicts, so the fleet log is the single-process log.
		if err := errors.Join(refSink.Close(), fleetSink.Close()); err != nil {
			t.Fatal(err)
		}
		if refLog.Len() == 0 {
			t.Fatal("reference campaign wrote no run log")
		}
		if !bytes.Equal(fleetLog.Bytes(), refLog.Bytes()) {
			t.Fatalf("fleet run log differs from single-process:\n%s", firstDiff(fleetLog.String(), refLog.String()))
		}
	} else {
		recs := sink.take()
		if len(recs) == 0 {
			t.Fatal("timed fleet campaign streamed no run records")
		}
		for _, rec := range recs {
			if rec.DurationNs <= 0 {
				t.Fatalf("record %s phase %d trial %d has durationNs %d, want > 0", rec.Label, rec.Phase, rec.Trial, rec.DurationNs)
			}
		}
	}
}

// firstDiff renders the first line at which two run logs differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}

// runFleet runs the campaign o over names on coord with n RunWorker loops
// configured as wo (Coordinator and Name filled in), then finishes it and
// requires every worker to exit cleanly. o.Executor, when set, must pass
// rounds on to coord.
func runFleet(t *testing.T, coord *Coordinator, names []string, o harness.CampaignOptions, n int, wo WorkerOptions) []harness.CampaignRow {
	t.Helper()
	coord.SetTargets(names)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, n)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wo := wo
			wo.Coordinator = "http://" + coord.Addr()
			wo.Name = fmt.Sprintf("test-worker-%d", w)
			workerErrs[w] = RunWorker(ctx, wo)
		}(w)
	}
	if o.Executor == nil {
		o.Executor = coord
	}
	rows, err := harness.RunCampaign(names, o)
	coord.Finish()
	wg.Wait()
	if err != nil {
		t.Fatalf("fleet campaign: %v", err)
	}
	for w, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}
	return rows
}

// TestFleetRunLogIsDeterministic: two same-seed fleet campaigns write
// byte-identical run logs. Each record's trace names the witness the
// coordinator archived, never a worker's deleted scratch file.
func TestFleetRunLogIsDeterministic(t *testing.T) {
	names := []string{"figure1", "vector"}
	dir := filepath.Join(t.TempDir(), "corpus")
	var logs [2]bytes.Buffer
	for i := range logs {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		store, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		sink := obs.NewJSONLSink(&logs[i])
		coord := startCoordinator(t, CoordinatorConfig{Store: store, Sink: sink, LeaseTTL: 5 * time.Second})
		runFleet(t, coord, names, harness.CampaignOptions{Seed: 7, Budget: 40, Rounds: 2, Corpus: store}, 2, WorkerOptions{})
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(logs[0].Bytes(), logs[1].Bytes()) {
		t.Fatalf("same-seed fleet run logs differ:\n%s\n----\n%s", logs[0].Bytes(), logs[1].Bytes())
	}
	traces := 0
	for _, line := range strings.Split(strings.TrimSpace(logs[0].String()), "\n") {
		var rec obs.RunRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("run log line %q: %v", line, err)
		}
		if rec.Trace == "" {
			continue
		}
		traces++
		if filepath.Dir(rec.Trace) != filepath.Join(dir, "witnesses") {
			t.Fatalf("record trace %q is not an archived witness", rec.Trace)
		}
		if _, err := os.Stat(rec.Trace); err != nil {
			t.Fatalf("record trace: %v", err)
		}
	}
	if traces == 0 {
		t.Fatal("no record names a witness; test proves nothing")
	}
}

// TestUnconfirmedWitnessIsNotArchived: the coordinator re-records each new
// finding's witness from the finding's seeds. A worker whose finding names
// a witness seed that does not confirm the target (a determinism failure)
// still has the finding ingested, but no witness is archived, no run record
// names a trace, and the failure is logged once, naming the signature.
func TestUnconfirmedWitnessIsNotArchived(t *testing.T) {
	unit := WorkUnit{ID: "r1-t0", RoundUnit: harness.RoundUnit{Round: 1, Target: "hedc", Trials: 20, Seed: 7}}
	good, err := ExecuteUnit(unit, CampaignInfo{})
	if err != nil {
		t.Fatal(err)
	}
	bad, ok := unconfirmedFinding(good.Findings)
	if !ok {
		t.Fatalf("every seed confirms every %s finding; test proves nothing", unit.Target)
	}

	dir := filepath.Join(t.TempDir(), "corpus")
	store, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	sink := obs.NewJSONLSink(&log)
	var mu sync.Mutex
	var lines []string
	coord := startCoordinator(t, CoordinatorConfig{
		Store: store, Sink: sink, LeaseTTL: 5 * time.Second,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	execute := func(u WorkUnit, info CampaignInfo) (UnitResult, error) {
		res, err := ExecuteUnit(u, info)
		if u != unit {
			t.Errorf("leased %+v, want %+v", u, unit)
		}
		res.Findings = []corpus.Finding{bad}
		return res, err
	}
	runFleet(t, coord, []string{unit.Target}, harness.CampaignOptions{Seed: unit.Seed, Budget: unit.Trials, Rounds: 1, Corpus: store}, 1,
		WorkerOptions{Execute: execute})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if got := store.Findings(); len(got) != 1 || got[0].Sig != bad.Sig || got[0].WitnessTrace != "" {
		t.Fatalf("corpus findings %+v, want only %s without a witness", got, bad.Sig)
	}
	if files := listDir(t, store.WitnessDir()); len(files) != 0 {
		t.Fatalf("archived %v for a witness seed that does not confirm", files)
	}
	if strings.Contains(log.String(), `"trace"`) {
		t.Fatalf("a run record names a trace:\n%s", log.String())
	}
	named := 0
	for _, line := range lines {
		if strings.Contains(line, bad.Sig.Canon()) {
			named++
		}
	}
	if named != 1 {
		t.Fatalf("%d log lines name %s, want 1:\n%s", named, bad.Sig, strings.Join(lines, "\n"))
	}
}

// unconfirmedFinding returns the first of findings with its witness seed
// replaced by one that does not confirm its target.
func unconfirmedFinding(findings []corpus.Finding) (corpus.Finding, bool) {
	for _, f := range findings {
		b, _ := bench.ByName(f.Bench)
		opts := core.Options{Seed: f.FirstSeenSeed, Phase1Trials: f.Phase1Trials, MaxSteps: f.MaxSteps, Label: f.Bench}
		for _, target := range core.DetectTargets(f.Sig.Kind, b.New(), opts) {
			if target.String() != f.Pair {
				continue
			}
			for seed := int64(0); seed < 100; seed++ {
				if _, hits, _ := core.Record(b.New(), target, seed, opts); hits == 0 {
					f.WitnessSeed = seed
					return f, true
				}
			}
		}
	}
	return corpus.Finding{}, false
}

// TestIdleWorkersNeverSleep: across a multi-round campaign in which one of
// two workers is always idle while the other runs the round's last unit
// (round r+1 is allocated only once round r is folded), no worker calls its
// sleeper; idle time is spent in held lease requests.
func TestIdleWorkersNeverSleep(t *testing.T) {
	var sleeps atomic.Int64
	store := corpus.NewStore()
	coord := startCoordinator(t, CoordinatorConfig{Store: store, LeaseTTL: 5 * time.Second})
	runFleet(t, coord, []string{"figure1"}, harness.CampaignOptions{Seed: 7, Budget: 30, Rounds: 3, Corpus: store}, 2,
		WorkerOptions{Sleep: func(context.Context, time.Duration) { sleeps.Add(1) }})
	if n := sleeps.Load(); n != 0 {
		t.Fatalf("workers slept %d times, want 0", n)
	}
}

// foldRecorder is a harness.RoundExecutor that passes each round to exec
// and logs the begin/done callbacks exec makes, calling onDone, when set,
// after each done.
type foldRecorder struct {
	exec   harness.RoundExecutor
	onDone func(i int)

	mu    sync.Mutex
	calls []string
}

func (f *foldRecorder) ExecuteRound(units []harness.RoundUnit, begin func(i int), done func(i int, out harness.UnitOutcome)) error {
	return f.exec.ExecuteRound(units,
		func(i int) {
			f.note("begin", i)
			begin(i)
		},
		func(i int, out harness.UnitOutcome) {
			done(i, out)
			f.note("done", i)
			if f.onDone != nil {
				f.onDone(i)
			}
		})
}

func (f *foldRecorder) note(what string, i int) {
	f.mu.Lock()
	f.calls = append(f.calls, fmt.Sprintf("%s(%d)", what, i))
	f.mu.Unlock()
}

// log returns the callbacks made so far.
func (f *foldRecorder) log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

// foldLog is the callback log of folding units 0..n-1 in order.
func foldLog(n int) []string {
	var calls []string
	for i := 0; i < n; i++ {
		calls = append(calls, fmt.Sprintf("begin(%d)", i), fmt.Sprintf("done(%d)", i))
	}
	return calls
}

// TestFoldDoesNotWaitForLaterUnits: a round folds unit 0 (begin, merge,
// done) as soon as unit 0 is done, while unit 1 is still executing on a
// worker, and the corpus then holds unit 0's findings.
func TestFoldDoesNotWaitForLaterUnits(t *testing.T) {
	names := []string{"figure1", "vector"}
	opt := func(store *corpus.Store) harness.CampaignOptions {
		return harness.CampaignOptions{Seed: 7, Budget: 40, Rounds: 1, Corpus: store}
	}
	ref := corpus.NewStore()
	refRows := harness.RunAdaptiveCampaign(names, opt(ref))
	var want0 []corpus.Finding
	for _, f := range ref.Findings() {
		if f.Bench == names[0] {
			want0 = append(want0, f)
		}
	}
	if len(want0) == 0 {
		t.Fatalf("%s found nothing; test proves nothing", names[0])
	}

	store := corpus.NewStore()
	coord := startCoordinator(t, CoordinatorConfig{Store: store, LeaseTTL: 5 * time.Second})
	release := make(chan struct{}) // unit 1's result is held until unit 0 is folded
	rec := &foldRecorder{exec: coord}
	rec.onDone = func(i int) {
		if i != 0 {
			return
		}
		defer close(release)
		if got := rec.log(); !reflect.DeepEqual(got, foldLog(1)) {
			t.Errorf("callbacks at done(0) = %v, want %v", got, foldLog(1))
		}
		if st := coord.status(); st.UnitsDone != 1 {
			t.Errorf("unit 0 folded with %d units done, want 1: the fold waited for unit 1", st.UnitsDone)
		}
		if got := store.Findings(); !reflect.DeepEqual(got, want0) {
			t.Errorf("corpus at done(0):\n got: %+v\nwant: %+v", got, want0)
		}
	}
	execute := func(u WorkUnit, info CampaignInfo) (UnitResult, error) {
		if u.TargetIndex == 1 {
			select {
			case <-release:
			case <-time.After(20 * time.Second):
			}
		}
		return ExecuteUnit(u, info)
	}
	o := opt(store)
	o.Executor = rec
	rows := runFleet(t, coord, names, o, 2, WorkerOptions{Execute: execute})

	if got := rec.log(); !reflect.DeepEqual(got, foldLog(2)) {
		t.Fatalf("callbacks = %v, want %v", got, foldLog(2))
	}
	if !reflect.DeepEqual(rows, refRows) || !reflect.DeepEqual(store.Findings(), ref.Findings()) {
		t.Fatalf("campaign diverges from single-process:\n got: %+v\nwant: %+v", rows, refRows)
	}
}

// leaseRound leases every unit of the round coord's driver is about to
// enqueue, in lease order, as worker w.
func leaseRound(t *testing.T, coord *Coordinator, n int) (units []WorkUnit, epochs []int64) {
	t.Helper()
	timeout := time.After(30 * time.Second)
	for len(units) < n {
		wake := coord.table.wakeup()
		if u, epoch, ok := coord.table.lease("w"); ok {
			units, epochs = append(units, u), append(epochs, epoch)
			continue
		}
		select {
		case <-wake:
		case <-timeout:
			t.Fatalf("leased %d of %d units", len(units), n)
		}
	}
	return units, epochs
}

// completeUnit executes unit u as a worker would and completes it on the
// lease table.
func completeUnit(t *testing.T, coord *Coordinator, u WorkUnit, epoch int64) {
	t.Helper()
	res, err := ExecuteUnit(u, coord.campaignInfo())
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := coord.table.complete("w", u.ID, epoch, &res); !ok {
		t.Fatalf("result for %s dropped: %s", u.ID, reason)
	}
}

// TestFoldOrderUnderReverseCompletion: results that arrive in reverse unit
// order are still folded 0, 1, 2, none before unit 0 arrives, and leave the
// corpus and run log the single-process campaign writes, byte for byte.
func TestFoldOrderUnderReverseCompletion(t *testing.T) {
	names := []string{"figure1", "vector", "hedc"}
	opt := func(store *corpus.Store) harness.CampaignOptions {
		return harness.CampaignOptions{Seed: 7, Budget: 60, Rounds: 1, Corpus: store}
	}
	// Both campaigns write their corpus at the same path, so the run logs'
	// witness paths agree; the reference corpus is moved aside after its run.
	base := t.TempDir()
	dir, refDir := filepath.Join(base, "corpus"), filepath.Join(base, "ref")
	ref, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var refLog, fleetLog bytes.Buffer
	refSink := obs.NewJSONLSink(&refLog)
	refOpt := opt(ref)
	refOpt.TraceDir, refOpt.Sink = ref.WitnessDir(), refSink
	refRows := harness.RunAdaptiveCampaign(names, refOpt)
	if err := errors.Join(refSink.Close(), ref.Save(), os.Rename(dir, refDir)); err != nil {
		t.Fatal(err)
	}

	store, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONLSink(&fleetLog)
	coord := NewCoordinator(CoordinatorConfig{Store: store, Sink: sink})
	defer coord.Shutdown(context.Background()) //nolint:errcheck // never started
	rec := &foldRecorder{exec: coord}
	o := opt(store)
	o.Executor = rec
	type outcome struct {
		rows []harness.CampaignRow
		err  error
	}
	campaign := make(chan outcome, 1)
	go func() {
		rows, err := harness.RunCampaign(names, o)
		campaign <- outcome{rows, err}
	}()

	units, epochs := leaseRound(t, coord, len(names))
	for i := len(units) - 1; i >= 0; i-- {
		if i == 0 {
			if got := rec.log(); len(got) != 0 {
				t.Fatalf("folded %v before unit 0 arrived", got)
			}
		}
		completeUnit(t, coord, units[i], epochs[i])
	}
	got := <-campaign
	if got.err != nil {
		t.Fatal(got.err)
	}
	if calls := rec.log(); !reflect.DeepEqual(calls, foldLog(len(names))) {
		t.Fatalf("callbacks = %v, want %v", calls, foldLog(len(names)))
	}
	if !reflect.DeepEqual(got.rows, refRows) {
		t.Fatalf("rows diverge from single-process:\n got: %+v\nwant: %+v", got.rows, refRows)
	}
	if err := errors.Join(sink.Close(), store.Save()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetLog.Bytes(), refLog.Bytes()) {
		t.Fatalf("run log differs from single-process:\n%s", firstDiff(fleetLog.String(), refLog.String()))
	}
	sameTree(t, dir, refDir)
}

// sameTree requires the files under got to be those under want, byte for
// byte, and want to hold at least one witness.
func sameTree(t *testing.T, got, want string) {
	t.Helper()
	read := func(root string) map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			rel, _ := filepath.Rel(root, path)
			files[rel] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	g, w := read(got), read(want)
	witnesses := 0
	for name := range w {
		if filepath.Dir(name) == "witnesses" {
			witnesses++
		}
	}
	if witnesses == 0 {
		t.Fatal("reference corpus has no witnesses; test proves nothing")
	}
	if !reflect.DeepEqual(g, w) {
		for name := range w {
			if g[name] != w[name] {
				t.Errorf("%s differs from the single-process corpus", name)
			}
		}
		for name := range g {
			if _, ok := w[name]; !ok {
				t.Errorf("%s is not in the single-process corpus", name)
			}
		}
		t.FailNow()
	}
}

// TestShutdownFoldsTheDonePrefix: a coordinator shut down mid-round folds
// the units done before the first outstanding one, and only those: the
// round returns the cancellation, done ran for that prefix alone, and the
// corpus holds exactly those units' findings, none of a later unit that
// was also done.
func TestShutdownFoldsTheDonePrefix(t *testing.T) {
	names := []string{"figure1", "vector", "hedc"}
	store := corpus.NewStore()
	coord := NewCoordinator(CoordinatorConfig{Store: store})
	defer coord.Shutdown(context.Background()) //nolint:errcheck // never started
	rec := &foldRecorder{exec: coord}
	campaign := make(chan error, 1)
	go func() {
		_, err := harness.RunCampaign(names, harness.CampaignOptions{Seed: 7, Budget: 60, Rounds: 1, Corpus: store, Executor: rec})
		campaign <- err
	}()

	// Unit 2 and unit 0 are done, unit 1 is still out when the coordinator
	// shuts down.
	units, epochs := leaseRound(t, coord, len(names))
	completeUnit(t, coord, units[2], epochs[2])
	completeUnit(t, coord, units[0], epochs[0])
	coord.Shutdown(context.Background()) //nolint:errcheck // never started
	if err := <-campaign; !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v, want %v", err, context.Canceled)
	}
	if calls := rec.log(); !reflect.DeepEqual(calls, foldLog(1)) {
		t.Fatalf("callbacks = %v, want %v", calls, foldLog(1))
	}
	want, err := ExecuteUnit(units[0], CampaignInfo{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Findings) == 0 {
		t.Fatalf("%s found nothing; test proves nothing", units[0].Target)
	}
	if got := store.Findings(); !reflect.DeepEqual(got, want.Findings) {
		t.Fatalf("corpus after shutdown:\n got: %+v\nwant %s's: %+v", got, units[0].ID, want.Findings)
	}
	if !reflect.DeepEqual(store.Coverage(), want.Cells) {
		t.Fatalf("coverage after shutdown is not %s's alone", units[0].ID)
	}
}

// TestHeldLeaseReleases: a lease request that finds nothing pending is
// held, and each way out of the hold answers it: new units and requeued
// units are granted, Finish answers Done (and drains the fleet), Shutdown
// and an expired hold answer Wait, and a client that goes away releases
// the handler.
func TestHeldLeaseReleases(t *testing.T) {
	const ttl = time.Hour // a hold that only its release can end
	cases := []struct {
		name    string
		ttl     time.Duration
		setup   func(c *Coordinator)
		release func(c *Coordinator, clock *fakeClock, cancel context.CancelFunc)
		check   func(t *testing.T, c *Coordinator, rec *httptest.ResponseRecorder)
	}{
		{
			name:    "add grants",
			release: func(c *Coordinator, _ *fakeClock, _ context.CancelFunc) { c.table.add(mkUnits("r1-t0")) },
			check:   wantUnit("r1-t0", 1),
		},
		{
			name: "requeue grants",
			setup: func(c *Coordinator) {
				c.table.add(mkUnits("r1-t0"))
				c.table.lease("lost-worker")
			},
			release: func(c *Coordinator, clock *fakeClock, _ context.CancelFunc) {
				clock.Advance(ttl)
				c.table.sweep()
			},
			check: wantUnit("r1-t0", 2),
		},
		{
			name:    "finish answers done",
			release: func(c *Coordinator, _ *fakeClock, _ context.CancelFunc) { c.Finish() },
			check: func(t *testing.T, c *Coordinator, rec *httptest.ResponseRecorder) {
				if got := leaseAnswer(t, rec); !got.Done {
					t.Fatalf("answer %+v, want Done", got)
				}
				if !c.Drained() {
					t.Fatal("fleet not drained after its only worker was told Done")
				}
			},
		},
		{
			name: "shutdown answers wait",
			release: func(c *Coordinator, _ *fakeClock, _ context.CancelFunc) {
				c.Shutdown(context.Background()) //nolint:errcheck // never started
			},
			check: wantWait,
		},
		{
			name:    "client gone",
			release: func(_ *Coordinator, _ *fakeClock, cancel context.CancelFunc) { cancel() },
			check: func(t *testing.T, _ *Coordinator, rec *httptest.ResponseRecorder) {
				if rec.Body.Len() != 0 {
					t.Fatalf("answered a departed client: %s", rec.Body)
				}
			},
		},
		{
			name:    "expired hold answers wait",
			ttl:     2 * time.Millisecond,
			release: func(*Coordinator, *fakeClock, context.CancelFunc) {},
			check:   wantWait,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			cfg := CoordinatorConfig{Store: corpus.NewStore(), LeaseTTL: ttl, Clock: clock}
			if tc.ttl > 0 {
				cfg.LeaseTTL = tc.ttl
			}
			c := NewCoordinator(cfg)
			var reg RegisterResponse
			if rec := post(c, "/fleet/register", strings.NewReader(`{"name":"held"}`)); json.Unmarshal(rec.Body.Bytes(), &reg) != nil {
				t.Fatalf("register: HTTP %d: %s", rec.Code, rec.Body)
			}
			if tc.setup != nil {
				tc.setup(c)
			}
			held := make(chan struct{}, 1)
			c.holding = func() {
				select {
				case held <- struct{}{}:
				default:
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			body, _ := json.Marshal(LeaseRequest{WorkerID: reg.WorkerID, Generation: reg.Generation})
			rec := httptest.NewRecorder()
			answered := make(chan struct{})
			go func() {
				defer close(answered)
				c.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/lease", bytes.NewReader(body)).WithContext(ctx))
			}()
			<-held
			tc.release(c, clock, cancel)
			select {
			case <-answered:
			case <-time.After(30 * time.Second):
				t.Fatal("held lease request not released")
			}
			tc.check(t, c, rec)
		})
	}
}

// leaseAnswer decodes a /fleet/lease answer.
func leaseAnswer(t *testing.T, rec *httptest.ResponseRecorder) LeaseResponse {
	t.Helper()
	var resp LeaseResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
		t.Fatalf("lease: HTTP %d: %q", rec.Code, rec.Body)
	}
	return resp
}

// wantUnit checks that a held lease was granted unit id under epoch.
func wantUnit(id string, epoch int64) func(*testing.T, *Coordinator, *httptest.ResponseRecorder) {
	return func(t *testing.T, _ *Coordinator, rec *httptest.ResponseRecorder) {
		if got := leaseAnswer(t, rec); got.Unit == nil || got.Unit.ID != id || got.Epoch != epoch {
			t.Fatalf("answer %+v, want unit %s under epoch %d", got, id, epoch)
		}
	}
}

// wantWait checks that a held lease ended empty.
func wantWait(t *testing.T, _ *Coordinator, rec *httptest.ResponseRecorder) {
	if got := leaseAnswer(t, rec); !got.Wait || got.Unit != nil || got.Done {
		t.Fatalf("answer %+v, want Wait", got)
	}
}

// listDir returns the sorted file names in dir ("" or missing = empty).
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) || dir == "" {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestFleetRequeueConvergesAfterWorkerDeath kills a worker mid-lease: the
// unit must requeue to the surviving worker, the campaign must converge to
// the exact single-process corpus, and the dead worker's late result must be
// dropped, not double-merged.
func TestFleetRequeueConvergesAfterWorkerDeath(t *testing.T) {
	names := []string{"figure1"}
	ref := corpus.NewStore()
	refRows := harness.RunAdaptiveCampaign(names, harness.CampaignOptions{
		Seed: 7, Budget: 20, Rounds: 2, Corpus: ref,
	})

	store := corpus.NewStore()
	const ttl = 100 * time.Millisecond
	coord := startCoordinator(t, CoordinatorConfig{Store: store, LeaseTTL: ttl})
	coord.SetTargets(names)
	base := "http://" + coord.Addr()
	client := &http.Client{Timeout: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// The campaign driver runs in the background; round 1's single unit
	// appears in the lease table once it starts.
	rowsCh := make(chan []harness.CampaignRow, 1)
	errCh := make(chan error, 1)
	go func() {
		o := harness.CampaignOptions{Seed: 7, Budget: 20, Rounds: 2, Corpus: store}
		o.Executor = coord
		rows, err := harness.RunCampaign(names, o)
		rowsCh <- rows
		errCh <- err
	}()

	// The doomed worker: registers, grabs the first unit, then goes silent
	// (no heartbeats), simulating a crash that keeps the process alive.
	var reg RegisterResponse
	if err := postJSON(ctx, client, base+"/fleet/register", RegisterRequest{Name: "doomed"}, &reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	var lease LeaseResponse
	for lease.Unit == nil {
		if err := postJSON(ctx, client, base+"/fleet/lease",
			LeaseRequest{WorkerID: reg.WorkerID, Generation: reg.Generation}, &lease); err != nil {
			t.Fatalf("lease: %v", err)
		}
		if lease.Unit == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	doomedUnit := *lease.Unit
	doomedEpoch := lease.Epoch

	// The survivor joins and inherits everything, including the expired
	// lease.
	var wg sync.WaitGroup
	wg.Add(1)
	var survivorErr error
	go func() {
		defer wg.Done()
		survivorErr = RunWorker(ctx, WorkerOptions{Coordinator: base, Name: "survivor"})
	}()

	rows := <-rowsCh
	if err := <-errCh; err != nil {
		t.Fatalf("fleet campaign: %v", err)
	}

	// The doomed worker wakes up long after its lease expired and submits
	// the batch it computed; determinism makes the batch identical, but the
	// protocol must still drop it — permanently, as a 410 the worker-side
	// retry loop knows never to resubmit.
	res, err := ExecuteUnit(doomedUnit, reg.Campaign)
	if err != nil {
		t.Fatalf("doomed execute: %v", err)
	}
	var rr ResultResponse
	err = postJSON(ctx, client, base+"/fleet/result", ResultRequest{
		WorkerID: reg.WorkerID, Generation: reg.Generation,
		UnitID: doomedUnit.ID, Epoch: doomedEpoch, Result: res,
	}, &rr)
	if err == nil {
		t.Fatal("expired lease's late result was accepted")
	}
	if !isPermanentReject(err) {
		t.Fatalf("late result rejected non-permanently: %v", err)
	}

	coord.Finish()
	wg.Wait()
	if survivorErr != nil {
		t.Fatalf("survivor: %v", survivorErr)
	}

	if !reflect.DeepEqual(rows, refRows) {
		t.Fatalf("requeued campaign rows diverge:\n got: %+v\nwant: %+v", rows, refRows)
	}
	if !reflect.DeepEqual(store.Findings(), ref.Findings()) {
		t.Fatalf("requeued campaign corpus diverges:\n got: %+v\nwant: %+v", store.Findings(), ref.Findings())
	}
	st := coord.status()
	if st.Requeues == 0 {
		t.Fatal("no lease was requeued despite a dead worker")
	}
	if st.ResultsDropped == 0 {
		t.Fatal("late duplicate result was not counted as dropped")
	}
}

// TestWorkerReregistersAfterCoordinatorRestart drives RunWorker against a
// scripted control plane: generation g1 is invalidated (as a restart
// would), and the worker must re-register, pick up the unit under g2, and
// exit cleanly at Done.
func TestWorkerReregistersAfterCoordinatorRestart(t *testing.T) {
	var mu sync.Mutex
	registers, leases, results := 0, 0, 0

	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		registers++
		n := registers
		mu.Unlock()
		writeJSON(w, RegisterResponse{
			WorkerID:       fmt.Sprintf("w%d", n),
			Generation:     fmt.Sprintf("g%d", n),
			LeaseTTLMillis: 60_000,
		})
	})
	mux.HandleFunc("/fleet/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		json.NewDecoder(r.Body).Decode(&req)
		if req.Generation == "g1" {
			writeJSONStatus(w, http.StatusConflict, errorBody{Error: "coordinator restarted", Code: codeReregister})
			return
		}
		mu.Lock()
		leases++
		n := leases
		mu.Unlock()
		if n == 1 {
			writeJSON(w, LeaseResponse{
				Unit:  &WorkUnit{ID: "r1-t0", RoundUnit: harness.RoundUnit{Target: "figure1", Trials: 1, Seed: 7}},
				Epoch: 1,
			})
			return
		}
		writeJSON(w, LeaseResponse{Done: true})
	})
	mux.HandleFunc("/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, HeartbeatResponse{OK: true})
	})
	mux.HandleFunc("/fleet/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		json.NewDecoder(r.Body).Decode(&req)
		mu.Lock()
		results++
		mu.Unlock()
		if req.Generation != "g2" || req.UnitID != "r1-t0" {
			t.Errorf("result under %q for %q, want g2 / r1-t0", req.Generation, req.UnitID)
		}
		writeJSON(w, ResultResponse{Accepted: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv.URL,
		Name:        "test",
		Execute: func(u WorkUnit, info CampaignInfo) (UnitResult, error) {
			return UnitResult{Trials: u.Trials}, nil
		},
		Sleep: func(context.Context, time.Duration) {},
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if registers != 2 {
		t.Fatalf("registers = %d, want 2 (initial + after restart)", registers)
	}
	if results != 1 {
		t.Fatalf("results = %d, want 1", results)
	}
}

// TestCoordinatorRejectsStaleGeneration covers the server side of restart
// recovery: a request under a generation the coordinator never issued is
// answered 409 with the reregister code.
func TestCoordinatorRejectsStaleGeneration(t *testing.T) {
	coord := startCoordinator(t, CoordinatorConfig{Store: corpus.NewStore()})
	base := "http://" + coord.Addr()
	client := &http.Client{Timeout: 5 * time.Second}
	ctx := context.Background()

	var reg RegisterResponse
	if err := postJSON(ctx, client, base+"/fleet/register", RegisterRequest{Name: "t"}, &reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	var lease LeaseResponse
	err := postJSON(ctx, client, base+"/fleet/lease",
		LeaseRequest{WorkerID: reg.WorkerID, Generation: "from-before-the-restart"}, &lease)
	if !isReregister(err) {
		t.Fatalf("stale generation answered %v, want reregister error", err)
	}
}

// TestWorkerResultRetryTransientThenSuccess: 5xx answers on /fleet/result
// are transient — the worker must retry with backoff and deliver the batch.
func TestWorkerResultRetryTransientThenSuccess(t *testing.T) {
	var mu sync.Mutex
	resultPosts := 0
	mux := scriptedControlPlane(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		resultPosts++
		n := resultPosts
		mu.Unlock()
		if n < 3 {
			writeJSONStatus(w, http.StatusInternalServerError, errorBody{Error: "merge hiccup"})
			return
		}
		writeJSON(w, ResultResponse{Accepted: true})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var rejects atomic.Int64
	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator:      srv.URL,
		Name:             "retry",
		PermanentRejects: &rejects,
		Execute: func(u WorkUnit, info CampaignInfo) (UnitResult, error) {
			return UnitResult{Trials: u.Trials}, nil
		},
		Sleep: func(context.Context, time.Duration) {},
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if resultPosts != 3 {
		t.Errorf("result posts = %d, want 3 (two 500s then success)", resultPosts)
	}
	if v := rejects.Load(); v != 0 {
		t.Errorf("permanent rejects = %d, want 0 for transient failures", v)
	}
}

// TestWorkerResultPermanentRejectNotRetried: a 410 drop is final — one POST,
// no retries, one counted permanent reject.
func TestWorkerResultPermanentRejectNotRetried(t *testing.T) {
	var mu sync.Mutex
	resultPosts := 0
	mux := scriptedControlPlane(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		resultPosts++
		mu.Unlock()
		writeJSONStatus(w, http.StatusGone, errorBody{Error: "stale lease epoch", Code: codeRejected})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var rejects atomic.Int64
	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator:      srv.URL,
		Name:             "rejected",
		PermanentRejects: &rejects,
		Execute: func(u WorkUnit, info CampaignInfo) (UnitResult, error) {
			return UnitResult{Trials: u.Trials}, nil
		},
		Sleep: func(context.Context, time.Duration) {},
	})
	if err != nil {
		t.Fatalf("RunWorker: %v", err)
	}
	if resultPosts != 1 {
		t.Errorf("result posts = %d, want 1 (permanent drops are not retried)", resultPosts)
	}
	if v := rejects.Load(); v != 1 {
		t.Errorf("permanent rejects = %d, want 1", v)
	}
}

// scriptedControlPlane builds a one-unit control plane whose /fleet/result
// behavior the test supplies: register, grant r1-t0 once, then Done.
func scriptedControlPlane(t *testing.T, result http.HandlerFunc) *http.ServeMux {
	t.Helper()
	var mu sync.Mutex
	leases := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, RegisterResponse{WorkerID: "w1", Generation: "g1", LeaseTTLMillis: 60_000})
	})
	mux.HandleFunc("/fleet/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		leases++
		n := leases
		mu.Unlock()
		if n == 1 {
			writeJSON(w, LeaseResponse{Unit: &WorkUnit{ID: "r1-t0", RoundUnit: harness.RoundUnit{Target: "figure1", Trials: 1, Seed: 7}}, Epoch: 1})
			return
		}
		writeJSON(w, LeaseResponse{Done: true})
	})
	mux.HandleFunc("/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, HeartbeatResponse{OK: true})
	})
	mux.HandleFunc("/fleet/result", result)
	return mux
}

// endlessBody is a request body that never ends: prefix, then 'a' bytes
// forever, which never close a JSON value. It counts what the server pulled
// from it.
type endlessBody struct {
	prefix []byte
	read   int64
}

func (b *endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
		if j := b.read + int64(i); j < int64(len(b.prefix)) {
			p[i] = b.prefix[j]
		}
	}
	b.read += int64(len(p))
	return len(p), nil
}

// TestCoordinatorRejectsOversizeRequests: a body past the cap is answered
// 413 after reading about the cap, never drained to the end, and the
// coordinator keeps serving well-formed requests.
func TestCoordinatorRejectsOversizeRequests(t *testing.T) {
	coord := startCoordinator(t, CoordinatorConfig{Store: corpus.NewStore()})
	coord.maxBody = 4 << 10

	body := &endlessBody{prefix: []byte(`{"name":"`)}
	rec := httptest.NewRecorder()
	coord.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/fleet/register", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("endless body: HTTP %d, want 413: %s", rec.Code, rec.Body)
	}
	if body.read > coord.maxBody+64<<10 {
		t.Fatalf("read %d bytes of an oversize body, cap %d", body.read, coord.maxBody)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	base := "http://" + coord.Addr()
	big := `{"name":"` + strings.Repeat("a", 8<<10) + `"}`
	resp, err := client.Post(base+"/fleet/register", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("oversize POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize POST: HTTP %d, want 413", resp.StatusCode)
	}
	var reg RegisterResponse
	if err := postJSON(context.Background(), client, base+"/fleet/register", RegisterRequest{Name: "ok"}, &reg); err != nil {
		t.Fatalf("well-formed register after an oversize one: %v", err)
	}
}
