package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
)

// WorkerOptions parameterizes RunWorker.
type WorkerOptions struct {
	// Coordinator is the control-plane base URL (e.g. "http://host:7070").
	Coordinator string
	// Name is the worker's human label (host:pid when empty).
	Name string
	// Provenance is this build's identity, sent at registration.
	Provenance obs.Provenance
	// Client overrides the HTTP client.
	Client *http.Client
	// Logf, when non-nil, receives worker lifecycle logging.
	Logf func(format string, args ...any)
	// Execute overrides unit execution (tests); nil runs ExecuteUnit.
	Execute func(u WorkUnit, info CampaignInfo) (UnitResult, error)
	// Sleep overrides the error-backoff sleeper (tests); nil sleeps for
	// real, waking early when ctx ends. An idle worker never sleeps: its
	// lease request is held by the coordinator instead.
	Sleep func(ctx context.Context, d time.Duration)
	// PermanentRejects, when non-nil, counts result submissions the
	// coordinator dropped for good (stale epoch, duplicate).
	PermanentRejects *obs.Counter
}

// resultMaxAttempts bounds the result POST retry loop for transient
// (5xx/network) failures; past it the lease simply expires and the unit
// requeues, which is deterministically equivalent.
const resultMaxAttempts = 4

// registration is a worker's session with one coordinator generation.
type registration struct {
	workerID   string
	generation string
	ttl        time.Duration
	info       CampaignInfo
}

// errReregister marks a control-plane response that invalidated our
// registration (the coordinator restarted).
type errReregister struct{ msg string }

func (e errReregister) Error() string { return e.msg }

// RunWorker joins the pool at o.Coordinator and executes leased batches
// until the coordinator declares the campaign done (returns nil) or ctx
// ends (returns ctx.Err()). A coordinator restart is survived transparently:
// any call rejected with code "reregister" sends the worker back to
// /fleet/register with backoff, and determinism makes the re-executed
// batches identical, so the only cost is the repeated work.
func RunWorker(ctx context.Context, o WorkerOptions) error {
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Name == "" {
		host, _ := os.Hostname()
		o.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if o.Execute == nil {
		o.Execute = ExecuteUnit
	}
	if o.Sleep == nil {
		o.Sleep = func(ctx context.Context, d time.Duration) {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
			case <-t.C:
			}
		}
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		reg, err := register(ctx, o)
		if err != nil {
			return err
		}
		logf("fleet: registered as %s with %s (generation %s)", reg.workerID, o.Coordinator, reg.generation)
		err = workLoop(ctx, o, reg)
		if err == nil {
			logf("fleet: campaign done, worker %s exiting", reg.workerID)
			return nil
		}
		var rr errReregister
		if errors.As(err, &rr) {
			logf("fleet: coordinator restarted (%s), re-registering", rr.msg)
			continue
		}
		return err
	}
}

// register joins the pool, retrying with capped exponential backoff until it
// succeeds or ctx ends — this is also the reconnect path after a
// coordinator restart, so patience matters more than speed.
func register(ctx context.Context, o WorkerOptions) (registration, error) {
	backoff := 100 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		if err := ctx.Err(); err != nil {
			return registration{}, err
		}
		var resp RegisterResponse
		err := postJSON(ctx, o.Client, o.Coordinator+"/fleet/register",
			RegisterRequest{Name: o.Name, Provenance: o.Provenance}, &resp)
		if err == nil {
			ttl := time.Duration(resp.LeaseTTLMillis) * time.Millisecond
			if ttl <= 0 {
				ttl = DefaultLeaseTTL
			}
			return registration{
				workerID:   resp.WorkerID,
				generation: resp.Generation,
				ttl:        ttl,
				info:       resp.Campaign,
			}, nil
		}
		if o.Logf != nil {
			o.Logf("fleet: register with %s failed (%v), retrying in %s", o.Coordinator, err, backoff)
		}
		o.Sleep(ctx, backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// workLoop is the lease → execute → report cycle under one registration.
// It returns nil when the campaign is done, errReregister when the
// coordinator's generation changed, or ctx.Err().
func workLoop(ctx context.Context, o WorkerOptions, reg registration) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lease LeaseResponse
		err := postJSON(ctx, o.Client, o.Coordinator+"/fleet/lease",
			LeaseRequest{WorkerID: reg.workerID, Generation: reg.generation}, &lease)
		if err != nil {
			if isReregister(err) {
				return errReregister{msg: err.Error()}
			}
			// Transient (coordinator briefly unreachable): wait and retry.
			o.Sleep(ctx, time.Second)
			continue
		}
		switch {
		case lease.Done:
			return nil
		case lease.Unit == nil:
			continue // the hold ended empty: poll again at once
		}
		if err := runLease(ctx, o, reg, lease); err != nil {
			return err
		}
	}
}

// runLease executes one granted unit under a heartbeat and reports the
// result. The heartbeat runs at a third of the lease TTL; losing the lease
// (expiry, coordinator handing the unit elsewhere) does not abort the batch
// — execution is deterministic, so the work is identical wherever it lands
// and our late result is simply dropped on arrival.
func runLease(ctx context.Context, o WorkerOptions, reg registration, lease LeaseResponse) error {
	unit := *lease.Unit
	if o.Logf != nil {
		o.Logf("fleet: leased %s (%s, %d trials, seed %d)", unit.ID, unit.Target, unit.Trials, unit.Seed)
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		tick := time.NewTicker(reg.ttl / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-tick.C:
				req := HeartbeatRequest{WorkerID: reg.workerID, Generation: reg.generation, UnitID: unit.ID, Epoch: lease.Epoch}
				var resp HeartbeatResponse
				err := postJSON(hbCtx, o.Client, o.Coordinator+"/fleet/heartbeat", req, &resp)
				if err == nil && resp.Lost && o.Logf != nil {
					o.Logf("fleet: lease on %s lost mid-batch; finishing anyway (result will be dropped)", unit.ID)
				}
			}
		}
	}()
	res, execErr := o.Execute(unit, reg.info)
	stopHB()
	hb.Wait()
	if execErr != nil {
		// A batch that cannot execute here (unknown target: registry drift
		// between builds) cannot execute anywhere better; surface it.
		return fmt.Errorf("fleet: execute %s: %w", unit.ID, execErr)
	}
	return postResult(ctx, o, reg, unit, lease.Epoch, res)
}

// postResult submits a completed batch, distinguishing permanent rejections
// from transient failures. A 410 (stale epoch, duplicate) can never succeed
// on retry: count it and move on. A 5xx or network error is retried with
// backoff a few times; past that the lease expires and the unit requeues.
func postResult(ctx context.Context, o WorkerOptions, reg registration, unit WorkUnit, epoch int64, res UnitResult) error {
	backoff := 250 * time.Millisecond
	for attempt := 1; ; attempt++ {
		var resp ResultResponse
		err := postJSON(ctx, o.Client, o.Coordinator+"/fleet/result",
			ResultRequest{WorkerID: reg.workerID, Generation: reg.generation, UnitID: unit.ID, Epoch: epoch, Result: res}, &resp)
		if err == nil {
			return nil
		}
		if isReregister(err) {
			return errReregister{msg: err.Error()}
		}
		if isPermanentReject(err) {
			o.PermanentRejects.Inc()
			if o.Logf != nil {
				o.Logf("fleet: result for %s permanently rejected: %v", unit.ID, err)
			}
			return nil
		}
		if attempt >= resultMaxAttempts || ctx.Err() != nil {
			// Transient failures exhausted; the lease will expire and the
			// unit will requeue — deterministically equivalent, so move on.
			if o.Logf != nil {
				o.Logf("fleet: result for %s not delivered after %d attempts (%v); unit will requeue", unit.ID, attempt, err)
			}
			return nil
		}
		if o.Logf != nil {
			o.Logf("fleet: result for %s failed (%v), retrying in %s", unit.ID, err, backoff)
		}
		o.Sleep(ctx, backoff)
		backoff *= 2
	}
}

// ExecuteUnit runs one leased batch in this process: the standard
// harness.RunUnit body against a fresh in-memory store, so the batch's
// findings, coverage cells and records stream back as a self-contained
// UnitResult for the coordinator to merge. The unit tuple fully determines
// the trials executed; only the new/known labeling is batch-local (the
// coordinator's merge re-deduplicates fleet-wide and relabels the records).
func ExecuteUnit(u WorkUnit, info CampaignInfo) (UnitResult, error) {
	if _, ok := bench.ByName(u.Target); !ok {
		return UnitResult{}, fmt.Errorf("unknown target %q (build mismatch with coordinator?)", u.Target)
	}
	store := corpus.NewStore()
	o := harness.CampaignOptions{Workers: info.Workers}
	o.Timing = info.Timing
	var rec *recordingSink
	if info.Records {
		rec = &recordingSink{}
		o.Sink = rec
	}
	out := harness.RunUnit(harness.RoundUnit{
		Round: u.Round, TargetIndex: u.TargetIndex, Target: u.Target,
		Trials: u.Trials, Seed: u.Seed,
	}, store, o)
	res := UnitResult{Trials: out.Trials, Potential: out.Potential, Findings: store.Findings(), Cells: store.Coverage()}
	if rec != nil {
		res.Records = rec.take()
	}
	return res, nil
}

// recordingSink buffers run records for the result payload.
type recordingSink struct {
	mu   sync.Mutex
	recs []obs.RunRecord
}

func (s *recordingSink) Emit(rec obs.RunRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *recordingSink) take() []obs.RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.recs
	s.recs = nil
	return recs
}

// httpError is a non-200 control-plane response.
type httpError struct {
	status int
	body   errorBody
}

func (e *httpError) Error() string {
	return fmt.Sprintf("coordinator: HTTP %d: %s", e.status, e.body.Error)
}

// isReregister reports whether err carries the coordinator's "registration
// is stale" code.
func isReregister(err error) bool {
	he, ok := err.(*httpError)
	return ok && he.body.Code == codeReregister
}

// isPermanentReject reports whether err is a result drop that can never
// succeed on retry: the explicit 410 "rejected" code, or any other 4xx (a
// malformed submission stays malformed). Reregister conflicts are handled
// separately — they do have a recovery path.
func isPermanentReject(err error) bool {
	he, ok := err.(*httpError)
	if !ok || he.body.Code == codeReregister {
		return false
	}
	return he.body.Code == codeRejected || (he.status >= 400 && he.status < 500)
}

// postJSON POSTs a JSON body and decodes the JSON response, mapping non-200
// statuses to *httpError (with the coordinator's error envelope when it
// sent one).
func postJSON(ctx context.Context, client *http.Client, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		he := &httpError{status: resp.StatusCode}
		json.Unmarshal(data, &he.body) //nolint:errcheck // best-effort envelope
		if he.body.Error == "" {
			he.body.Error = string(bytes.TrimSpace(data))
		}
		return he
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(out)
}
