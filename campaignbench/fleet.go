package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/fleet"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
)

const (
	// fleetRounds is the allocation rounds of a measured campaign.
	fleetRounds = 4
	// fleetWarmBudget is the budget of the one-round warm-up campaign.
	fleetWarmBudget = 160
	// registerTimeout bounds the wait for every worker to join the pool.
	registerTimeout = 10 * time.Second
)

// fleetWork is the fleet workload: an adaptive campaign over every registry
// target, executed by a loopback coordinator and one worker goroutine per
// executor slot, into an on-disk corpus with witness capture and a JSONL run
// log.
type fleetWork struct{ size }

// setup starts a coordinator, registers one worker and runs a small
// one-round warm-up campaign.
func (fleetWork) setup(seed int64) error {
	_, err := runFleetCampaign(seed, 1, fleetWarmBudget, 1, nil)
	return err
}

// pass runs one campaign with width workers, each executing its units at
// core width 1.
func (w fleetWork) pass(seed int64, width int, l *ledger) (passOut, error) {
	return runFleetCampaign(seed, width, w.fleetBudget, fleetRounds, l)
}

// runFleetCampaign runs one fleet campaign in a temporary directory that it
// removes afterwards. Its wall time covers harness.RunCampaign only: the
// coordinator has started and every worker has registered before it begins.
// The digest covers the saved findings.jsonl and coverage.jsonl, the
// witness files and the campaign rows, so it is equal for 1 and N workers.
func runFleetCampaign(seed int64, workers, budget, rounds int, l *ledger) (passOut, error) {
	var out passOut
	dir, err := os.MkdirTemp("", "campaignbench-fleet-")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	store, err := corpus.Open(filepath.Join(dir, "corpus"))
	if err != nil {
		return out, err
	}
	logFile, err := os.Create(filepath.Join(dir, "runs.jsonl"))
	if err != nil {
		return out, err
	}
	jsonl := obs.NewJSONLSink(logFile)
	defer jsonl.Close()
	var sink obs.Sink = jsonl
	if l != nil {
		sink = &timedSink{s: jsonl, f: &l.fleet}
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Addr: "127.0.0.1:0", Store: store, Workers: 1, Sink: sink})
	if err := coord.Start(); err != nil {
		return out, fmt.Errorf("coordinator: %w", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		coord.Shutdown(ctx) //nolint:errcheck // the campaign's result is already in hand
	}()
	names := bench.Names()
	coord.SetTargets(names)

	// One connection per worker at most: the transport caps them.
	transport := &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	defer transport.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, workers)
	for w := 0; w < workers; w++ {
		o := fleet.WorkerOptions{
			Coordinator: "http://" + coord.Addr(),
			Name:        fmt.Sprintf("worker-%d", w),
			Client:      &http.Client{Transport: transport, Timeout: 30 * time.Second},
		}
		if l != nil {
			l.instrumentWorker(w+1, &o)
		}
		wg.Add(1)
		go func(w int, o fleet.WorkerOptions) {
			defer wg.Done()
			werrs[w] = fleet.RunWorker(ctx, o)
		}(w, o)
	}
	if err := awaitWorkers(coord, workers); err != nil {
		cancel()
		wg.Wait()
		return out, err
	}

	var exec harness.RoundExecutor = coord
	if l != nil {
		exec = &timedRounds{exec: coord, l: l}
	}
	end := l.begin("campaign", fmt.Sprintf("campaign %d x%d", seed, workers))
	start := time.Now()
	rows, err := harness.RunCampaign(names, harness.CampaignOptions{
		Seed: seed, Budget: budget, Rounds: rounds, Corpus: store, Executor: exec,
	})
	out.wall = time.Since(start)
	end()
	// Finished workers leave on their next lease request.
	coord.Finish()
	wg.Wait()
	if err != nil {
		return out, err
	}
	for w, werr := range werrs {
		if werr != nil {
			fmt.Printf("check: fleet campaign %d: worker %d: %v\n", seed, w, werr)
			out.failed++
		}
	}
	st, err := fleetStatus(coord)
	if err != nil {
		return out, err
	}
	out.ops = st.UnitsDone + int(st.Requeues)
	if st.Requeues+st.ResultsDropped > 0 {
		fmt.Printf("check: fleet campaign %d: %d requeued and %d dropped leases\n", seed, st.Requeues, st.ResultsDropped)
		out.failed += int(st.Requeues + st.ResultsDropped)
	}
	for _, r := range rows {
		out.execs += int64(r.Trials)
	}

	if err := jsonl.Close(); err != nil {
		return out, fmt.Errorf("run log: %w", err)
	}
	saveStart := time.Now()
	if err := store.Save(); err != nil {
		return out, err
	}
	save := time.Since(saveStart)
	digest, witnesses, witnessBytes, err := corpusDigest(store, rows)
	if err != nil {
		return out, err
	}
	out.digest = digest
	if l != nil {
		l.fleet.campaign(workers, out.wall, save, st, store, witnesses, witnessBytes)
	}
	return out, nil
}

// corpusDigest hashes the campaign rows, the saved findings.jsonl and
// coverage.jsonl, and every witness file by name, and counts the witnesses
// and their bytes.
func corpusDigest(store *corpus.Store, rows []harness.CampaignRow) (digest string, witnesses int, witnessBytes int64, err error) {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", rows)
	add := func(path string) (int, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(path), len(data))
		h.Write(data)
		return len(data), nil
	}
	for _, name := range []string{"findings.jsonl", "coverage.jsonl"} {
		if _, err := add(filepath.Join(store.Dir(), name)); err != nil {
			return "", 0, 0, err
		}
	}
	entries, err := os.ReadDir(store.WitnessDir()) // sorted by name
	if err != nil && !os.IsNotExist(err) {
		return "", 0, 0, err
	}
	for _, e := range entries {
		n, err := add(filepath.Join(store.WitnessDir(), e.Name()))
		if err != nil {
			return "", 0, 0, err
		}
		witnesses++
		witnessBytes += int64(n)
	}
	return hex.EncodeToString(h.Sum(nil)), witnesses, witnessBytes, nil
}

// fleetStatus reads the coordinator's /fleet/status snapshot in process.
func fleetStatus(coord *fleet.Coordinator) (fleet.Status, error) {
	rec := httptest.NewRecorder()
	coord.StatusHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/fleet/status", nil))
	var st fleet.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("fleet status: %w", err)
	}
	return st, nil
}

// awaitWorkers waits until n workers have registered.
func awaitWorkers(coord *fleet.Coordinator, n int) error {
	deadline := time.Now().Add(registerTimeout)
	for {
		st, err := fleetStatus(coord)
		if err != nil {
			return err
		}
		if st.WorkersTotal >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d of %d workers registered after %s", st.WorkersTotal, n, registerTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// fleetStats sums the fleet workload's seams over a traced run's campaigns.
type fleetStats struct {
	mu        sync.Mutex
	campaigns int
	// harness: round start to each unit's ordered done(i), and whole rounds.
	unitMs, roundMs []float64
	// Worker execution and the capacity it had (workers x campaign wall).
	execMs             []float64
	execNs, capacityNs int64
	rpcMs              map[string][]float64 // by URL path
	resultBytes        []float64
	sleepNs            int64
	sinkNs, records    int64
	saveMs             []float64
	requeues, dropped  int64
	// Corpus and witness counts, summed over campaigns.
	newSigs, known, cells   int64
	witnesses, witnessBytes int64
}

// instrumentWorker wraps one worker's seams: unit execution, the backoff
// sleeper (which still sleeps) and the HTTP client.
func (l *ledger) instrumentWorker(lane int, o *fleet.WorkerOptions) {
	f := &l.fleet
	o.Execute = func(u fleet.WorkUnit, info fleet.CampaignInfo) (fleet.UnitResult, error) {
		start := time.Now()
		res, err := fleet.ExecuteUnit(u, info)
		d := time.Since(start)
		f.mu.Lock()
		f.execMs = append(f.execMs, float64(d.Nanoseconds())/1e6)
		f.execNs += d.Nanoseconds()
		f.mu.Unlock()
		l.record(span{name: u.ID, cat: "exec", lane: lane, startNs: start.Sub(l.epoch).Nanoseconds(), durNs: d.Nanoseconds()})
		return res, err
	}
	o.Sleep = func(ctx context.Context, d time.Duration) {
		start := time.Now()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		f.mu.Lock()
		f.sleepNs += time.Since(start).Nanoseconds()
		f.mu.Unlock()
	}
	o.Client = &http.Client{Transport: &timedTransport{rt: o.Client.Transport, l: l, lane: lane}, Timeout: o.Client.Timeout}
}

// timedTransport times each control-plane RPC until its response headers
// arrive.
type timedTransport struct {
	rt   http.RoundTripper
	l    *ledger
	lane int
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.rt.RoundTrip(req)
	d := time.Since(start)
	f := &t.l.fleet
	f.mu.Lock()
	if f.rpcMs == nil {
		f.rpcMs = map[string][]float64{}
	}
	f.rpcMs[req.URL.Path] = append(f.rpcMs[req.URL.Path], float64(d.Nanoseconds())/1e6)
	if req.URL.Path == "/fleet/result" {
		f.resultBytes = append(f.resultBytes, float64(req.ContentLength))
	}
	f.mu.Unlock()
	t.l.record(span{name: req.URL.Path, cat: "rpc", lane: t.lane, startNs: start.Sub(t.l.epoch).Nanoseconds(), durNs: d.Nanoseconds()})
	return resp, err
}

// timedSink times the coordinator's run-record emission.
type timedSink struct {
	s obs.Sink
	f *fleetStats
}

func (t *timedSink) Emit(rec obs.RunRecord) {
	start := time.Now()
	t.s.Emit(rec)
	d := time.Since(start)
	t.f.mu.Lock()
	t.f.sinkNs += d.Nanoseconds()
	t.f.records++
	t.f.mu.Unlock()
}

// timedRounds times the coordinator's rounds and the ordered completion of
// each unit within one.
type timedRounds struct {
	exec harness.RoundExecutor
	l    *ledger
}

func (t *timedRounds) ExecuteRound(units []harness.RoundUnit, begin func(i int), done func(i int, out harness.UnitOutcome)) error {
	round := 0
	if len(units) > 0 {
		round = units[0].Round
	}
	end := t.l.begin("round", fmt.Sprintf("round %d", round))
	start := time.Now()
	f := &t.l.fleet
	err := t.exec.ExecuteRound(units, begin, func(i int, out harness.UnitOutcome) {
		done(i, out)
		d := time.Since(start)
		f.mu.Lock()
		f.unitMs = append(f.unitMs, float64(d.Nanoseconds())/1e6)
		f.mu.Unlock()
		t.l.record(span{name: units[i].Target, cat: "unit", startNs: start.Sub(t.l.epoch).Nanoseconds(), durNs: d.Nanoseconds()})
	})
	d := time.Since(start)
	end()
	f.mu.Lock()
	f.roundMs = append(f.roundMs, float64(d.Nanoseconds())/1e6)
	f.mu.Unlock()
	return err
}

// campaign adds one finished campaign's totals.
func (f *fleetStats) campaign(workers int, wall, save time.Duration, st fleet.Status, store *corpus.Store, witnesses int, witnessBytes int64) {
	newSigs, known := store.Counts()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.campaigns++
	f.capacityNs += int64(workers) * wall.Nanoseconds()
	f.saveMs = append(f.saveMs, float64(save.Nanoseconds())/1e6)
	f.requeues += st.Requeues
	f.dropped += st.ResultsDropped
	f.newSigs += newSigs
	f.known += known
	f.cells += int64(store.CoverageLen())
	f.witnesses += int64(witnesses)
	f.witnessBytes += witnessBytes
}

// metrics fills in the harness, corpus, obs, flightrec and fleet metrics.
func (f *fleetStats) metrics(v map[string]float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.campaigns == 0 {
		return
	}
	n := float64(f.campaigns)
	v["harness.unit_ms_p50"] = quantile(f.unitMs, 0.5)
	v["harness.unit_ms_p90"] = quantile(f.unitMs, 0.9)
	v["harness.round_ms_mean"] = mean(f.roundMs)
	v["corpus.new_sigs"] = float64(f.newSigs) / n
	v["corpus.known_sightings"] = float64(f.known) / n
	v["corpus.cells"] = float64(f.cells) / n
	v["corpus.dedup_rate"] = ratio(f.known, f.newSigs+f.known)
	v["corpus.save_ms"] = median(f.saveMs)
	v["obs.sink_emit_ns"] = ratio(f.sinkNs, f.records)
	v["obs.records"] = float64(f.records) / n
	v["flightrec.witnesses"] = float64(f.witnesses) / n
	v["flightrec.witness_kb"] = float64(f.witnessBytes) / 1024 / n
	v["fleet.exec_ms_p50"] = quantile(f.execMs, 0.5)
	v["fleet.exec_ms_p90"] = quantile(f.execMs, 0.9)
	v["fleet.worker_busy_frac"] = ratio(f.execNs, f.capacityNs)
	v["fleet.lease_rpc_ms_p50"] = quantile(f.rpcMs["/fleet/lease"], 0.5)
	v["fleet.result_rpc_ms_p50"] = quantile(f.rpcMs["/fleet/result"], 0.5)
	v["fleet.result_kb_mean"] = mean(f.resultBytes) / 1024
	v["fleet.idle_sleep_ms"] = float64(f.sleepNs) / 1e6 / n
	v["fleet.requeues"] = float64(f.requeues)
	v["fleet.dropped"] = float64(f.dropped)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
