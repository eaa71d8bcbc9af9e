package observatory

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// startServer boots an observatory on an ephemeral port and tears it down
// with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // second Shutdown in some tests
	})
	return s
}

func httpGet(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp
}

// sseEvent is one parsed frame of the /events stream.
type sseEvent struct {
	name string
	data string
}

// readSSE parses SSE frames off r until the stream closes, forwarding each
// frame to out.
func readSSE(r io.Reader, out chan<- sseEvent) {
	defer close(out)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if ev.name != "" || ev.data != "" {
				out <- ev
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
}

// TestObservatoryServesLiveCampaign is the end-to-end path: a real
// two-phase figure2 campaign with a parallel executor feeds the server,
// while an SSE client watches and /metrics, /debug/sched, / and /healthz
// are scraped over real HTTP.
func TestObservatoryServesLiveCampaign(t *testing.T) {
	s := startServer(t, Config{Label: "figure2", EventBuffer: 4096})
	base := "http://" + s.Addr()

	// Subscribe over HTTP before the campaign so the stream sees it live.
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/events Content-Type = %q", ct)
	}
	frames := make(chan sseEvent, 4096)
	go readSSE(resp.Body, frames)

	// The opening frame must be a metrics snapshot.
	select {
	case ev := <-frames:
		if ev.name != "snapshot" {
			t.Fatalf("first SSE frame = %q, want snapshot", ev.name)
		}
		var parsed obs.StreamEvent
		if err := json.Unmarshal([]byte(ev.data), &parsed); err != nil {
			t.Fatalf("snapshot frame not JSON: %v", err)
		}
		if parsed.Metrics == nil {
			t.Fatal("snapshot frame carries no metrics")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no opening snapshot frame")
	}
	// Only now start draining the rest: a collector started earlier would
	// compete with the select above for the opening frame.
	var collected []sseEvent
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range frames {
			collected = append(collected, ev)
		}
	}()

	// Run the campaign against the server's wiring accessors, exactly as the
	// binaries do — parallel executor, corpus dedup, live introspection.
	b := bench.MustByName("figure2")
	opts := core.Options{
		Seed:         1,
		Phase1Trials: 3,
		Phase2Trials: 20,
		Workers:      4,
		Label:        b.Name,
		Corpus:       corpus.NewStore(),
		Probes: core.Probes{
			Metrics: s.Campaign(), Sink: s.Sink(), Introspect: s.Introspector(), Prof: s.Prof(),
		},
	}
	rep := core.Analyze(b.New(), opts)
	if len(rep.Potential) == 0 {
		t.Fatal("phase 1 found no potential races in figure2")
	}
	if rep.RealCount() == 0 {
		t.Fatal("campaign confirmed no races in figure2")
	}

	// /metrics: the acceptance families, with real values, correct type.
	body, mresp := httpGet(t, base+"/metrics")
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, family := range []string{
		"racefuzzer_trials_total",
		"racefuzzer_findings_new_total",
		"racefuzzer_findings_dedup_rate",
		"racefuzzer_runs_total",
		"racefuzzer_steps_to_race_bucket",
		"racefuzzer_target_runs_total{bench=\"figure2\"",
		"racefuzzer_observatory_subscribers",
		"go_goroutines",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
	var trials float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "racefuzzer_trials_total ") {
			fmt.Sscanf(line, "racefuzzer_trials_total %g", &trials) //nolint:errcheck
		}
	}
	if want := float64(len(rep.Potential) * opts.Phase2Trials); trials != want {
		t.Errorf("racefuzzer_trials_total = %g, want %g", trials, want)
	}

	// /debug/sched: completed-run snapshot over HTTP.
	sbody, sresp := httpGet(t, base+"/debug/sched?timeout=100ms")
	if ct := sresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/sched Content-Type = %q", ct)
	}
	var snap sched.SchedSnapshot
	if err := json.Unmarshal([]byte(sbody), &snap); err != nil {
		t.Fatalf("/debug/sched not JSON: %v\n%s", err, sbody)
	}
	if snap.LastCompleted == nil {
		t.Fatal("/debug/sched has no completed run after a whole campaign")
	}
	if !snap.LastCompleted.Done || snap.LastCompleted.Policy == "" {
		t.Errorf("completed snapshot malformed: %+v", snap.LastCompleted)
	}

	// /debug/perf: live schedprof aggregates with per-op-kind latency
	// quantiles, covering every execution of the campaign.
	pbody, presp := httpGet(t, base+"/debug/perf")
	if ct := presp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/perf Content-Type = %q", ct)
	}
	var perf schedprof.Summary
	if err := json.Unmarshal([]byte(pbody), &perf); err != nil {
		t.Fatalf("/debug/perf not JSON: %v\n%s", err, pbody)
	}
	if want := int64(opts.Phase1Trials + len(rep.Potential)*opts.Phase2Trials); perf.Trials != want {
		t.Errorf("/debug/perf trials = %d, want %d", perf.Trials, want)
	}
	if perf.Grants == 0 || len(perf.Ops) == 0 {
		t.Fatalf("/debug/perf has no latency data: %s", pbody)
	}
	sampled := false
	for _, op := range perf.Ops {
		if op.Count > 0 && op.Service.P99 > 0 {
			sampled = true
		}
	}
	if !sampled {
		t.Errorf("/debug/perf quantiles all zero: %s", pbody)
	}

	// /debug/coverage: the live coverage frontier mirrors the campaign —
	// same trial count, a non-empty discovery curve whose final point equals
	// the totals, and a Chao1 estimate at or above observed richness.
	cbody, cresp := httpGet(t, base+"/debug/coverage")
	if ct := cresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/debug/coverage Content-Type = %q", ct)
	}
	var cov CoverageSnapshot
	if err := json.Unmarshal([]byte(cbody), &cov); err != nil {
		t.Fatalf("/debug/coverage not JSON: %v\n%s", err, cbody)
	}
	if want := int64(len(rep.Potential) * opts.Phase2Trials); cov.Trials != want {
		t.Errorf("/debug/coverage trials = %d, want %d", cov.Trials, want)
	}
	if cov.NewSigs == 0 || cov.NewCells == 0 || len(cov.Curve) == 0 {
		t.Fatalf("/debug/coverage shows no discovery: %s", cbody)
	}
	if f := cov.Curve[len(cov.Curve)-1]; f.Sigs != cov.NewSigs || f.Cells != cov.NewCells {
		t.Errorf("coverage curve final %+v != totals (sigs %d, cells %d)", f, cov.NewSigs, cov.NewCells)
	}
	if cov.Observed == 0 || cov.Chao1 < float64(cov.Observed) {
		t.Errorf("coverage frontier malformed: observed=%d chao1=%v", cov.Observed, cov.Chao1)
	}

	// Dashboard and liveness.
	dash, dresp := httpGet(t, base+"/")
	if ct := dresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("dashboard Content-Type = %q", ct)
	}
	if !strings.Contains(dash, "EventSource") {
		t.Error("dashboard does not wire up the SSE stream")
	}
	if !strings.Contains(dash, "/debug/coverage") {
		t.Error("dashboard does not wire up the coverage panel")
	}
	if !strings.Contains(dash, "/fleet/health") {
		t.Error("dashboard does not wire up the flight-deck panel")
	}
	if !strings.Contains(dash, "probeFleet") {
		t.Error("dashboard does not gate fleet polling behind a probe")
	}
	if _, nf := httpGet(t, base+"/nosuch"); nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", nf.StatusCode)
	}
	if hb, _ := httpGet(t, base+"/healthz"); strings.TrimSpace(hb) != "ok" {
		t.Errorf("/healthz = %q", hb)
	}

	// Graceful shutdown: the client must receive a final "shutdown" frame
	// and then a clean stream close.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	var runs, findings int
	last := sseEvent{}
	for _, ev := range collected {
		switch ev.name {
		case "run":
			runs++
		case "finding":
			findings++
		}
		last = ev
	}
	if runs == 0 {
		t.Error("SSE client saw no run events")
	}
	if findings == 0 {
		t.Error("SSE client saw no finding events")
	}
	if last.name != "shutdown" {
		t.Errorf("last SSE frame = %q, want shutdown", last.name)
	}
	var final obs.StreamEvent
	if err := json.Unmarshal([]byte(last.data), &final); err != nil || final.Metrics == nil {
		t.Errorf("shutdown frame carries no final metrics: %v %s", err, last.data)
	}
}

// TestObservatorySchedEndpointShowsDeadlock drives a deterministic
// deadlock through the introspector and reads its wait-for graph back over
// HTTP — the payload /debug/sched exists for.
func TestObservatorySchedEndpointShowsDeadlock(t *testing.T) {
	s := startServer(t, Config{Label: "deadlock"})

	res := sched.Run(func(t *sched.Thread) {
		lk := t.Scheduler().NewLock("L")
		t.LockAcquire(lk, 0)
		w := t.Fork("w", func(c *sched.Thread) {
			c.LockAcquire(lk, 0)
			c.LockRelease(lk, 0)
		})
		t.Join(w)
	}, sched.Config{Seed: 2, Introspect: s.Introspector()})
	if res.Deadlock == nil {
		t.Fatal("program did not deadlock")
	}

	body, _ := httpGet(t, "http://"+s.Addr()+"/debug/sched")
	var snap sched.SchedSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/debug/sched not JSON: %v", err)
	}
	last := snap.LastCompleted
	if last == nil {
		t.Fatal("no completed snapshot")
	}
	if len(last.WaitFor) != 2 {
		t.Fatalf("wait-for graph over HTTP has %d edges, want 2: %s", len(last.WaitFor), body)
	}
	if len(last.Cycles) != 1 {
		t.Fatalf("cycles over HTTP = %v, want one", last.Cycles)
	}
	if len(last.Locks) != 1 || last.Locks[0].Name != "L" {
		t.Fatalf("held-locks table over HTTP = %+v", last.Locks)
	}
}

// TestObservatoryNilServerIsInert pins the zero-overhead contract: every
// accessor and lifecycle method of a nil *Server is a usable no-op, so call
// sites wire the observatory unconditionally.
func TestObservatoryNilServerIsInert(t *testing.T) {
	var s *Server
	if s.Campaign() != nil || s.Registry() != nil || s.Introspector() != nil || s.Prof() != nil {
		t.Error("nil server handed out live wiring")
	}
	if s.Sink() != nil {
		t.Error("nil server Sink is not interface-nil")
	}
	if err := s.Start(); err != nil {
		t.Errorf("nil Start: %v", err)
	}
	if s.Addr() != "" {
		t.Errorf("nil Addr = %q", s.Addr())
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("nil Shutdown: %v", err)
	}
	// The nil wiring must compose with a real run.
	prog := bench.MustByName("figure2")
	core.DetectPotentialRaces(prog.New(), core.Options{
		Seed: 1, Phase1Trials: 1,
		Probes: core.Probes{Metrics: s.Campaign(), Sink: s.Sink(), Introspect: s.Introspector()},
	})
}

// TestCoverageTrackerCurveAndEstimate pins the live tracker's bookkeeping:
// dedup rate, abundance-based Chao1 inputs, and the curve decimation that
// bounds memory while preserving the envelope (final point == totals).
func TestCoverageTrackerCurveAndEstimate(t *testing.T) {
	c := newCoverageTracker()
	// Every trial confirms a distinct target once: all singletons.
	for i := 0; i < 3*maxCurvePoints; i++ {
		c.observe(obs.RunRecord{Phase: 2, Label: "x", Kind: "race", PairIndex: i,
			RaceCreated: true, Finding: "new", NewCells: 1})
	}
	// Plus some re-sightings of target 0 that move no counts.
	for i := 0; i < 4; i++ {
		c.observe(obs.RunRecord{Phase: 2, Label: "x", Kind: "race", PairIndex: 0,
			RaceCreated: true, Finding: "known"})
	}
	snap := c.snapshot()
	total := int64(3 * maxCurvePoints)
	if snap.Trials != total+4 || snap.NewSigs != total || snap.KnownSigs != 4 || snap.NewCells != total {
		t.Fatalf("totals = %+v", snap)
	}
	if want := 4 / float64(total+4); snap.DedupRate != want {
		t.Errorf("dedup rate = %v, want %v", snap.DedupRate, want)
	}
	if snap.Observed != 3*maxCurvePoints {
		t.Errorf("observed = %d", snap.Observed)
	}
	// Target 0 was sighted 5 times; everything else exactly once.
	if snap.F1 != snap.Observed-1 || snap.F2 != 0 {
		t.Errorf("f1=%d f2=%d, want %d and 0", snap.F1, snap.F2, snap.Observed-1)
	}
	if snap.Chao1 < float64(snap.Observed) || snap.CompletenessPct <= 0 || snap.CompletenessPct > 100 {
		t.Errorf("estimate malformed: chao1=%v completeness=%v", snap.Chao1, snap.CompletenessPct)
	}
	if len(snap.Curve) >= maxCurvePoints {
		t.Errorf("curve not decimated: %d points", len(snap.Curve))
	}
	f := snap.Curve[len(snap.Curve)-1]
	if f.Sigs != snap.NewSigs || f.Cells != snap.NewCells {
		t.Errorf("curve final %+v != totals after decimation", f)
	}
}

// TestObservatoryTargetSeriesCap pins the label-cardinality guard: targets
// beyond the cap are counted in the skipped series, not exposed.
func TestObservatoryTargetSeriesCap(t *testing.T) {
	s := startServer(t, Config{Label: "cap"})
	sink := s.Sink()
	for i := 0; i < maxTargetSeries+25; i++ {
		sink.Emit(obs.RunRecord{
			Phase: 2, Label: "cap", Kind: "race",
			Pair: fmt.Sprintf("(stmt%d, stmt%d)", i, i+1),
		})
	}
	body, _ := httpGet(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(body, "racefuzzer_target_series_skipped_total 25") {
		t.Error("/metrics does not report the 25 skipped series")
	}
	if got := strings.Count(body, "racefuzzer_target_runs_total{"); got != maxTargetSeries {
		t.Errorf("exposed %d target series, want %d", got, maxTargetSeries)
	}
}

// TestObservatoryMountsExtraHandlers covers the Handle hook the fleet
// coordinator uses: a handler mounted before Start is served from the
// observatory mux, and gauges published into the registry (as the
// coordinator's fleet gauges are) surface on /metrics.
func TestObservatoryMountsExtraHandlers(t *testing.T) {
	cfg := Config{Label: "fleet"}
	s := New(cfg)
	s.Handle("/fleet/status", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"generation":"g-test","workersLive":2}`)
	}))
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	body, resp := httpGet(t, "http://"+s.Addr()+"/fleet/status")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"g-test"`) {
		t.Fatalf("/fleet/status = %d %q, want mounted handler's payload", resp.StatusCode, body)
	}

	s.Registry().Gauge("fleet.workers_live").Set(2)
	s.Registry().Gauge("fleet.leases_inflight").Set(3)
	metrics, _ := httpGet(t, "http://"+s.Addr()+"/metrics")
	for _, want := range []string{"racefuzzer_fleet_workers_live 2", "racefuzzer_fleet_leases_inflight 3"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Handle is nil-safe like every other accessor.
	var nilServer *Server
	nilServer.Handle("/x", http.NotFoundHandler())
}
