// Package fleet turns racefuzzer from a tool into a service: a long-lived
// coordinator that schedules adaptive campaigns across many target programs
// and many worker processes, and the worker pull loop that executes leased
// trial batches.
//
// The division of labor follows the determinism contract the rest of the
// repository already enforces. A work unit is a (target, seed, trial-budget)
// tuple, so execution is location-independent: any worker running the same
// build produces bit-identical trials. The coordinator therefore owns only
// the things that must be globally ordered — budget allocation (the
// corpus.Allocate bandit), lease bookkeeping, and all corpus writes, which
// happen exclusively on the coordinator through the corpus merge protocol
// (Store.Ingest/IngestCell), folding worker batches in unit order. The
// result: a fleet campaign's corpus and findings match the single-process
// campaign at the same budget, and a lost worker costs only a requeued
// lease, never a double-counted finding.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
)

// DefaultLeaseTTL is the lease expiry workers must heartbeat within.
const DefaultLeaseTTL = 10 * time.Second

// maxRequestBytes caps every control-plane request body. The largest
// legitimate body is a unit result with its run records; the cap matches what workers accept in a response, and keeps a
// broken or hostile client from making the coordinator read without bound.
// Oversize requests are answered 413.
const maxRequestBytes = 64 << 20

// CoordinatorConfig parameterizes NewCoordinator.
type CoordinatorConfig struct {
	// Addr is the control-plane listen address (e.g. ":7070").
	Addr string
	// Store is the authoritative campaign corpus; every merge lands here.
	// It must be the same store the campaign driver (harness.RunCampaign)
	// was given.
	Store *corpus.Store
	// Workers is the trial-executor width each fleet worker runs batches
	// with (core.Options.Workers).
	Workers int
	// Metrics and Sink, when non-nil, receive the run records workers
	// stream back, re-emitted in deterministic unit order.
	Metrics *obs.CampaignMetrics
	Sink    obs.Sink
	// Timing asks workers to stamp durationNs on the run records they
	// stream back (CampaignInfo.Timing), as -timing does in-process.
	Timing bool
	// LeaseTTL overrides DefaultLeaseTTL. Half of it bounds how long a
	// lease request is held while no unit is pending.
	LeaseTTL time.Duration
	// Clock overrides the system clock (tests).
	Clock Clock
	// Provenance is the coordinator's build identity, handed to workers for
	// build-parity checks.
	Provenance obs.Provenance
	// Logf, when non-nil, receives coordinator lifecycle logging.
	Logf func(format string, args ...any)
}

// Coordinator is the fleet control plane plus the campaign-side
// harness.RoundExecutor: harness.RunCampaign drives rounds, the coordinator
// leases each round's units to the pool and merges results back in order.
type Coordinator struct {
	cfg   CoordinatorConfig
	clock Clock
	table *leaseTable
	gen   string
	// maxBody is the request-body cap (maxRequestBytes; tests shrink it).
	maxBody int64

	mu       sync.Mutex
	workers  map[string]*workerInfo
	nextID   int
	done     bool
	finished chan struct{}   // closed by Finish, releasing held lease requests
	notified map[string]bool // workers that have been told the campaign is done
	targets  []string        // campaign name list, for /fleet/status

	// holding, when non-nil, is called each time a lease request starts
	// waiting for a unit (tests).
	holding func()

	ctx    context.Context
	cancel context.CancelFunc

	srv *http.Server
	ln  net.Listener
}

// workerInfo is the registry's view of one worker.
type workerInfo struct {
	name     string
	lastSeen time.Time
	leased   int64
	results  int64
}

// NewCoordinator assembles a coordinator (not yet listening).
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	clock := cfg.Clock
	if clock == nil {
		clock = systemClock{}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Coordinator{
		cfg:      cfg,
		clock:    clock,
		table:    newLeaseTable(clock, cfg.LeaseTTL),
		gen:      fmt.Sprintf("g-%d-%d", os.Getpid(), time.Now().UnixNano()),
		maxBody:  maxRequestBytes,
		workers:  make(map[string]*workerInfo),
		finished: make(chan struct{}),
		notified: make(map[string]bool),
		ctx:      ctx,
		cancel:   cancel,
	}
}

// Generation identifies this coordinator process; workers that present a
// different generation are told to re-register.
func (c *Coordinator) Generation() string { return c.gen }

// logf logs through the configured logger.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Mux returns the control-plane handler, for mounting on an existing server
// (the observatory mounts StatusHandler only; tests mount the whole mux).
func (c *Coordinator) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/register", c.handleRegister)
	mux.HandleFunc("/fleet/lease", c.handleLease)
	mux.HandleFunc("/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/fleet/result", c.handleResult)
	mux.Handle("/fleet/status", c.StatusHandler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Start begins serving the control plane and the background lease sweeper.
func (c *Coordinator) Start() error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	c.ln = ln
	c.srv = &http.Server{Handler: c.Mux()}
	go c.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	go c.sweepLoop()
	return nil
}

// Addr returns the bound control-plane address ("" before Start).
func (c *Coordinator) Addr() string {
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// sweepLoop expires overdue leases even when no worker traffic arrives, so
// a round barrier eventually requeues a silently-dead fleet's units.
func (c *Coordinator) sweepLoop() {
	tick := time.NewTicker(c.cfg.LeaseTTL / 2)
	defer tick.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-tick.C:
			c.table.sweep()
		}
	}
}

// Shutdown stops the control plane and cancels any in-flight round barrier
// and held lease request.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.cancel()
	if c.srv == nil {
		return nil
	}
	return c.srv.Shutdown(ctx)
}

// Finish marks the campaign complete: from now on every lease request,
// held ones included, is answered Done, sending workers to a clean exit.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	if !c.done {
		c.done = true
		close(c.finished)
	}
	c.mu.Unlock()
}

// Drained reports whether every live worker has been told the campaign is
// done (the CLI lingers on this before shutting the control plane down).
func (c *Coordinator) Drained() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		return false
	}
	cutoff := c.clock.Now().Add(-3 * c.cfg.LeaseTTL)
	for id, w := range c.workers {
		if w.lastSeen.After(cutoff) && !c.notified[id] {
			return false
		}
	}
	return true
}

// SetTargets records the campaign's name list for /fleet/status.
func (c *Coordinator) SetTargets(names []string) {
	c.mu.Lock()
	c.targets = append([]string(nil), names...)
	c.mu.Unlock()
}

// ExecuteRound implements harness.RoundExecutor: enqueue the round's units,
// wait for the pool to complete them all, then fold each unit's batch into
// the corpus in unit order inside the driver's begin/done accounting window.
func (c *Coordinator) ExecuteRound(units []harness.RoundUnit, begin func(i int), done func(i int, out harness.UnitOutcome)) error {
	wus := make([]WorkUnit, len(units))
	ids := make([]string, len(units))
	for i, u := range units {
		wus[i] = WorkUnit{
			ID:          fmt.Sprintf("r%d-t%d", u.Round, u.TargetIndex),
			Round:       u.Round,
			TargetIndex: u.TargetIndex,
			Target:      u.Target,
			Trials:      u.Trials,
			Seed:        u.Seed,
		}
		ids[i] = wus[i].ID
	}
	c.table.add(wus)
	if err := c.table.awaitDone(c.ctx, ids); err != nil {
		return fmt.Errorf("fleet: round barrier: %w", err)
	}
	for i := range units {
		res := c.table.takeResult(ids[i])
		if res == nil {
			return fmt.Errorf("fleet: unit %s completed without a result", ids[i])
		}
		begin(i)
		c.mergeResult(res)
		done(i, harness.UnitOutcome{Trials: res.Trials, Potential: res.Potential})
	}
	return nil
}

// mergeResult folds one batch into the authoritative corpus: findings and
// coverage cells through the merge protocol, a re-recorded witness
// archived for each finding that is new fleet-wide, run records re-emitted
// to the coordinator's metrics/sink. This is the only place corpus writes
// happen in a fleet campaign. A worker labels its records against its
// batch-local store; each record is relabeled from the coordinator's own
// verdicts, so the run log equals the single-process campaign's.
func (c *Coordinator) mergeResult(res *UnitResult) {
	store := c.cfg.Store
	// A finding's first confirming run is the record of the same
	// (kind, target, trial); only that record carries a verdict.
	type run struct {
		kind          string
		target, trial int
	}
	runOf := func(f corpus.Finding) run { return run{f.Sig.Kind, f.TargetIndex, f.WitnessTrial} }
	known := make(map[run]bool, len(res.Findings))
	var fresh []corpus.Finding
	for _, f := range res.Findings {
		f.WitnessTrace = "" // the coordinator archives its own witnesses
		if store.Ingest(f) {
			fresh = append(fresh, f)
		} else {
			known[runOf(f)] = true
		}
	}
	paths, errs := harness.ArchiveWitnesses(store, fresh)
	for _, err := range errs {
		c.logf("fleet: %v", err)
	}
	traces := make(map[run]string, len(fresh))
	for i, f := range fresh {
		traces[runOf(f)] = paths[i]
	}
	// Cells and the records that first observed them are both in
	// first-observation order, so they pair up one to one.
	cellNew := make([]bool, len(res.Cells))
	for i, cell := range res.Cells {
		cellNew[i] = store.IngestCell(cell)
	}
	next := 0
	for _, rec := range res.Records {
		if rec.Finding == "new" {
			k := run{rec.Kind, rec.PairIndex, rec.Trial}
			if known[k] {
				rec.Finding = "known"
			}
			rec.Trace = traces[k]
		}
		if rec.NewCells > 0 {
			rec.NewCells = 0
			if next < len(cellNew) && cellNew[next] {
				rec.NewCells = 1
			}
			next++
		}
		c.cfg.Metrics.Emit(rec)
		obs.Emit(c.cfg.Sink, rec)
	}
}

// campaignInfo is the standing config handed to workers at registration.
func (c *Coordinator) campaignInfo() CampaignInfo {
	return CampaignInfo{
		Workers: c.cfg.Workers,
		Records: c.cfg.Metrics != nil || c.cfg.Sink != nil,
		Timing:  c.cfg.Timing,
	}
}

// touchWorker validates a (workerID, generation) pair and stamps liveness.
// It returns false after writing the re-register error when the pair is
// stale — the one error workers must react to.
func (c *Coordinator) touchWorker(w http.ResponseWriter, workerID, generation string) bool {
	c.mu.Lock()
	info, ok := c.workers[workerID]
	if ok && generation == c.gen {
		info.lastSeen = c.clock.Now()
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	writeJSONStatus(w, http.StatusConflict, errorBody{
		Error: "unknown worker or stale generation (coordinator restarted?)",
		Code:  codeReregister,
	})
	return false
}

// handleRegister admits a worker into the pool.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !c.readJSON(w, r, &req) {
		return
	}
	c.mu.Lock()
	c.nextID++
	id := fmt.Sprintf("w%d", c.nextID)
	c.workers[id] = &workerInfo{name: req.Name, lastSeen: c.clock.Now()}
	c.mu.Unlock()
	c.logf("fleet: worker %s registered (%s, %s)", id, req.Name, req.Provenance.String())
	if req.Provenance.Commit != c.cfg.Provenance.Commit || req.Provenance.Go != c.cfg.Provenance.Go {
		c.logf("fleet: warning: worker %s build differs from coordinator (worker %s/%s, coordinator %s/%s) — trial determinism is only guaranteed across identical builds",
			id, req.Provenance.Commit, req.Provenance.Go, c.cfg.Provenance.Commit, c.cfg.Provenance.Go)
	}
	writeJSON(w, RegisterResponse{
		WorkerID:       id,
		Generation:     c.gen,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		Campaign:       c.campaignInfo(),
		Provenance:     c.cfg.Provenance,
	})
}

// handleLease grants the next pending unit or — once the campaign is
// finished — releases the worker. When nothing is pending it holds the
// request until units are added or requeued, the campaign finishes, the
// coordinator shuts down or the client goes away, for at most half the
// lease TTL; a hold that ends empty is answered Wait and the worker polls
// again at once.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !c.readJSON(w, r, &req) {
		return
	}
	if !c.touchWorker(w, req.WorkerID, req.Generation) {
		return
	}
	var hold *time.Timer
	for {
		c.mu.Lock()
		finished := c.done
		if finished {
			c.notified[req.WorkerID] = true
		}
		c.mu.Unlock()
		if finished {
			writeJSON(w, LeaseResponse{Done: true})
			return
		}
		wake := c.table.wakeup()
		if unit, epoch, ok := c.table.lease(req.WorkerID); ok {
			c.mu.Lock()
			if info := c.workers[req.WorkerID]; info != nil {
				info.leased++
			}
			c.mu.Unlock()
			writeJSON(w, LeaseResponse{Unit: &unit, Epoch: epoch})
			return
		}
		if hold == nil {
			hold = time.NewTimer(c.cfg.LeaseTTL / 2)
			defer hold.Stop()
		}
		if c.holding != nil {
			c.holding()
		}
		select {
		case <-wake:
		case <-c.finished:
		case <-r.Context().Done():
			return
		case <-c.ctx.Done():
			writeJSON(w, LeaseResponse{Wait: true})
			return
		case <-hold.C:
			writeJSON(w, LeaseResponse{Wait: true})
			return
		}
	}
}

// handleHeartbeat extends a held lease.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !c.readJSON(w, r, &req) {
		return
	}
	if !c.touchWorker(w, req.WorkerID, req.Generation) {
		return
	}
	ok := c.table.heartbeat(req.WorkerID, req.UnitID, req.Epoch)
	writeJSON(w, HeartbeatResponse{OK: ok, Lost: !ok})
}

// handleResult ingests a completed batch (idempotently: duplicates and
// stale-epoch submissions are dropped, not merged twice).
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !c.readJSON(w, r, &req) {
		return
	}
	if !c.touchWorker(w, req.WorkerID, req.Generation) {
		return
	}
	res := req.Result
	accepted, reason := c.table.complete(req.WorkerID, req.UnitID, req.Epoch, &res)
	if !accepted {
		// A dropped result is permanent: the identical submission can never
		// be accepted, so answer 410 and let the worker count it rather than
		// retry it.
		c.logf("fleet: dropped result for %s from %s: %s", req.UnitID, req.WorkerID, reason)
		writeJSONStatus(w, http.StatusGone, errorBody{Error: reason, Code: codeRejected})
		return
	}
	c.mu.Lock()
	if info := c.workers[req.WorkerID]; info != nil {
		info.results++
	}
	c.mu.Unlock()
	writeJSON(w, ResultResponse{Accepted: true})
}

// StatusHandler serves the /fleet/status snapshot; the observatory mounts it
// beside /events and /debug/perf.
func (c *Coordinator) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, c.status())
	})
}

// status assembles the live fleet snapshot.
func (c *Coordinator) status() Status {
	pending, leased, doneN, requeues, dropped := c.table.counts()
	c.mu.Lock()
	cutoff := c.clock.Now().Add(-3 * c.cfg.LeaseTTL)
	live := 0
	for _, info := range c.workers {
		if info.lastSeen.After(cutoff) {
			live++
		}
	}
	st := Status{
		Generation:     c.gen,
		Done:           c.done,
		WorkersLive:    live,
		WorkersTotal:   len(c.workers),
		Pending:        pending,
		Leased:         leased,
		UnitsDone:      doneN,
		Requeues:       requeues,
		ResultsDropped: dropped,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}
	targets := append([]string(nil), c.targets...)
	c.mu.Unlock()
	sort.Strings(targets)
	for _, name := range targets {
		st.Targets = append(st.Targets, TargetStatus{
			Name:       name,
			Signatures: c.cfg.Store.BenchSignatures(name),
		})
	}
	return st
}

// readJSON decodes a request body of at most c.maxBody bytes, answering 413
// on an oversize body and 400 on malformed input.
func (c *Coordinator) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, c.maxBody)).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSONStatus(w, status, errorBody{Error: fmt.Sprintf("bad request: %v", err)})
		return false
	}
	return true
}

// writeJSON writes a 200 JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes a JSON response with an explicit status.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort write to client
}
