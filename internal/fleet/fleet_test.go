package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/fleetspan"
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

// TestFleetCampaignMatchesSingleProcessTraced re-runs the determinism
// contract with fleetspan tracing on: span capture must not perturb any
// campaign artifact, and the trail itself must validate, stitch worker
// sub-spans, and export to Perfetto.
func TestFleetCampaignMatchesSingleProcessTraced(t *testing.T) {
	testFleetMatchesSingleProcess(t, true)
}

func testFleetMatchesSingleProcess(t *testing.T, traced bool) {
	names := []string{"figure1", "vector"}
	opt := func(store *corpus.Store) harness.CampaignOptions {
		return harness.CampaignOptions{Seed: 7, Budget: 40, Rounds: 2, Corpus: store}
	}

	// The single-process reference, witnesses archived in its corpus.
	refDir := t.TempDir()
	ref, err := corpus.Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	refOpt := opt(ref)
	refOpt.TraceDir = ref.WitnessDir()
	refRows := harness.RunAdaptiveCampaign(names, refOpt)

	// The fleet run: same campaign options, but every unit executes on one
	// of two worker loops and reaches the corpus through the merge protocol.
	fleetDir := t.TempDir()
	store, err := corpus.Open(fleetDir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CoordinatorConfig{Store: store, LeaseTTL: 5 * time.Second}
	if traced {
		cfg.Spans = fleetspan.NewCollector(fleetspan.Config{Token: "e2e"})
	}
	coord := startCoordinator(t, cfg)
	coord.SetTargets(names)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workerErrs[w] = RunWorker(ctx, WorkerOptions{
				Coordinator: "http://" + coord.Addr(),
				Name:        fmt.Sprintf("test-worker-%d", w),
			})
		}(w)
	}

	fleetOpt := opt(store)
	fleetOpt.Executor = coord
	rows, err := harness.RunCampaign(names, fleetOpt)
	if err != nil {
		t.Fatalf("fleet campaign: %v", err)
	}
	coord.Finish()
	wg.Wait()
	for w, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", w, werr)
		}
	}

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
	// captured on workers and archived by the coordinator.
	refWitness := listDir(t, ref.WitnessDir())
	fleetWitness := listDir(t, store.WitnessDir())
	if !reflect.DeepEqual(refWitness, fleetWitness) {
		t.Fatalf("witness file sets differ:\n got: %v\nwant: %v", fleetWitness, refWitness)
	}
	if len(refWitness) == 0 {
		t.Fatal("reference campaign archived no witnesses; test proves nothing")
	}
	for _, name := range refWitness {
		want, _ := os.ReadFile(filepath.Join(ref.WitnessDir(), name))
		got, _ := os.ReadFile(filepath.Join(store.WitnessDir(), name))
		if string(want) != string(got) {
			t.Fatalf("witness %s differs between fleet and single-process", name)
		}
	}

	st := coord.status()
	if st.UnitsDone == 0 || st.Pending != 0 || st.Leased != 0 {
		t.Fatalf("fleet status after campaign: %+v", st)
	}

	if traced {
		// The span trail must cover every unit, validate against the schema
		// after a disk round trip, carry stitched worker sub-spans, and
		// export to a loadable Perfetto trace.
		trailPath := filepath.Join(fleetDir, fleetspan.TrailFile)
		if err := fleetspan.WriteTrails(trailPath, cfg.Spans.Trails()); err != nil {
			t.Fatalf("write trail: %v", err)
		}
		trails, err := fleetspan.LoadTrails(trailPath)
		if err != nil {
			t.Fatalf("trail does not validate: %v", err)
		}
		ingested, stitched := 0, 0
		for _, tr := range trails {
			if tr.Outcome == fleetspan.OutcomeIngested {
				ingested++
				if tr.Stitched() {
					stitched++
				}
			}
		}
		if ingested != st.UnitsDone {
			t.Errorf("trail has %d ingested attempts, status says %d units done", ingested, st.UnitsDone)
		}
		if stitched != ingested {
			t.Errorf("only %d/%d ingested attempts carry stitched worker spans", stitched, ingested)
		}
		if evs := fleetspan.Events(trails); len(evs) == 0 {
			t.Error("Perfetto export is empty")
		}
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
				Unit:  &WorkUnit{ID: "r1-t0", Target: "figure1", Trials: 1, Seed: 7},
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

	metrics := obs.NewRegistry()
	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv.URL,
		Name:        "retry",
		Metrics:     metrics,
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
	if v := metrics.Counter("results.permanent_reject").Value(); v != 0 {
		t.Errorf("permanent_reject = %d, want 0 for transient failures", v)
	}
}

// TestWorkerResultPermanentRejectNotRetried: a 410 drop is final — one POST,
// no retries, one counted results.permanent_reject.
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

	metrics := obs.NewRegistry()
	err := RunWorker(context.Background(), WorkerOptions{
		Coordinator: srv.URL,
		Name:        "rejected",
		Metrics:     metrics,
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
	if v := metrics.Counter("results.permanent_reject").Value(); v != 1 {
		t.Errorf("permanent_reject = %d, want 1", v)
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
			writeJSON(w, LeaseResponse{Unit: &WorkUnit{ID: "r1-t0", Target: "figure1", Trials: 1, Seed: 7}, Epoch: 1})
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

// fakeFleetClock is a manually-advanced Clock shared by the coordinator and
// its span collector in the flight-deck test.
type fakeFleetClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeFleetClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, c.ns)
}

func (c *fakeFleetClock) advance(d time.Duration) {
	c.mu.Lock()
	c.ns += d.Nanoseconds()
	c.mu.Unlock()
}

// TestFleetHealthFlightDeck scripts the acceptance scenario over the real
// control plane with a fake clock: a healthy round, then a killed worker
// producing a straggler and a requeue storm visible on /fleet/health (score
// degrades), then completion and window expiry (score recovers).
func TestFleetHealthFlightDeck(t *testing.T) {
	clk := &fakeFleetClock{ns: 1_000_000_000_000}
	spans := fleetspan.NewCollector(fleetspan.Config{
		Token:               "deck",
		Clock:               clk,
		StragglerFactor:     2,
		StragglerMinSamples: 3,
		StormWindow:         30 * time.Second,
		StormThreshold:      3,
	})
	coord := startCoordinator(t, CoordinatorConfig{
		Store:    corpus.NewStore(),
		LeaseTTL: time.Second,
		Clock:    clk,
		Spans:    spans,
	})
	base := "http://" + coord.Addr()
	client := &http.Client{Timeout: 10 * time.Second}
	ctx := context.Background()

	var reg RegisterResponse
	if err := postJSON(ctx, client, base+"/fleet/register", RegisterRequest{Name: "deck-worker"}, &reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	if !reg.Campaign.Trace {
		t.Fatal("campaign info does not ask workers to trace")
	}

	getHealth := func() fleetspan.Health {
		t.Helper()
		resp, err := client.Get(base + "/fleet/health")
		if err != nil {
			t.Fatalf("GET /fleet/health: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/fleet/health: HTTP %d", resp.StatusCode)
		}
		var h fleetspan.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decode health: %v", err)
		}
		return h
	}

	// leaseUnit retries Wait answers the way a real worker does: ExecuteRound
	// runs on its own goroutine, so the round's units may not be enqueued yet
	// when the first lease request arrives.
	leaseUnit := func(wantID string) LeaseResponse {
		t.Helper()
		var lease LeaseResponse
		deadline := time.Now().Add(10 * time.Second)
		for {
			lease = LeaseResponse{}
			if err := postJSON(ctx, client, base+"/fleet/lease",
				LeaseRequest{WorkerID: reg.WorkerID, Generation: reg.Generation}, &lease); err != nil {
				t.Fatalf("lease: %v", err)
			}
			if !lease.Wait || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if lease.Unit == nil || lease.Unit.ID != wantID {
			t.Fatalf("leased %+v, want unit %s", lease.Unit, wantID)
		}
		return lease
	}
	postResultOK := func(id string, epoch int64) {
		t.Helper()
		var rr ResultResponse
		if err := postJSON(ctx, client, base+"/fleet/result", ResultRequest{
			WorkerID: reg.WorkerID, Generation: reg.Generation,
			UnitID: id, Epoch: epoch, Result: UnitResult{Trials: 1},
		}, &rr); err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
	}

	// Round 1: three healthy ~100ms units teach the target's exec profile.
	round1 := []harness.RoundUnit{
		{Round: 1, TargetIndex: 0, Target: "figure1", Trials: 1, Seed: 7},
		{Round: 1, TargetIndex: 1, Target: "figure1", Trials: 1, Seed: 7},
		{Round: 1, TargetIndex: 2, Target: "figure1", Trials: 1, Seed: 7},
	}
	roundDone := make(chan error, 1)
	go func() { roundDone <- coord.ExecuteRound(round1, func(int) {}, func(int, harness.UnitOutcome) {}) }()
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("r1-t%d", i)
		lease := leaseUnit(id)
		clk.advance(100 * time.Millisecond)
		postResultOK(id, lease.Epoch)
	}
	if err := <-roundDone; err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if h := getHealth(); h.Score != 100 || h.UnitsDone != 3 {
		t.Fatalf("healthy fleet: score %d, done %d: %+v", h.Score, h.UnitsDone, h)
	}

	// Round 2: the worker takes the unit and dies. The lease runs far past
	// 2× the target's p95 — a straggler — and then expires repeatedly under
	// the sweeper — a requeue storm.
	round2 := []harness.RoundUnit{{Round: 2, TargetIndex: 0, Target: "figure1", Trials: 1, Seed: 9}}
	go func() { roundDone <- coord.ExecuteRound(round2, func(int) {}, func(int, harness.UnitOutcome) {}) }()
	lease := leaseUnit("r2-t0")
	clk.advance(900 * time.Millisecond) // straggling, lease still live
	h := getHealth()
	if n := countAnomalies(h, fleetspan.AnomalyStraggler); n != 1 {
		t.Fatalf("want 1 straggler anomaly, got %d: %+v", n, h.Anomalies)
	}
	if h.Score >= 100 {
		t.Fatalf("straggler did not degrade score: %+v", h)
	}
	degraded := h.Score

	for i := 0; i < 3; i++ {
		clk.advance(2 * time.Second) // expire the lease
		coord.table.sweep()
		lease = leaseUnit("r2-t0")
	}
	h = getHealth()
	if countAnomalies(h, fleetspan.AnomalyRequeueStorm) != 1 {
		t.Fatalf("want a requeue-storm anomaly: %+v", h.Anomalies)
	}
	if h.Score >= degraded {
		t.Fatalf("storm did not degrade score further: %d vs %d", h.Score, degraded)
	}

	// Recovery: the final lease completes, the round barrier ingests it, and
	// the storm window slides past.
	clk.advance(100 * time.Millisecond)
	postResultOK("r2-t0", lease.Epoch)
	if err := <-roundDone; err != nil {
		t.Fatalf("round 2: %v", err)
	}
	clk.advance(time.Minute)
	h = getHealth()
	if h.Score != 100 || len(h.Anomalies) != 0 {
		t.Fatalf("fleet did not recover: score %d, anomalies %+v", h.Score, h.Anomalies)
	}
	if h.UnitsDone != 4 || h.UnitsInFlight != 0 {
		t.Errorf("units done %d in flight %d, want 4/0", h.UnitsDone, h.UnitsInFlight)
	}
}

func countAnomalies(h fleetspan.Health, kind string) int {
	n := 0
	for _, a := range h.Anomalies {
		if a.Kind == kind {
			n++
		}
	}
	return n
}

// endlessBody is a request body that never ends: a JSON string that keeps
// growing. It counts what the server pulled from it.
type endlessBody struct{ read int64 }

func (b *endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
		if b.read+int64(i) < int64(len(`{"name":"`)) {
			p[i] = `{"name":"`[b.read+int64(i)]
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

	body := &endlessBody{}
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
