package observatory

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/obs"
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
// while an SSE client watches and the opening snapshot of a late client,
// /debug/perf and /healthz are read over real HTTP.
func TestObservatoryServesLiveCampaign(t *testing.T) {
	s := startServer(t, Config{EventBuffer: 4096})
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
	// binaries do — parallel executor, corpus dedup, live profiling.
	b := bench.MustByName("figure2")
	opts := core.Options{
		Seed:         1,
		Phase1Trials: 3,
		Phase2Trials: 20,
		Workers:      4,
		Label:        b.Name,
		Corpus:       corpus.NewStore(),
		Probes: core.Probes{
			Metrics: s.Campaign(), Sink: s.Sink(), Prof: s.Prof(),
		},
	}
	rep := core.Analyze(b.New(), opts)
	if len(rep.Potential) == 0 {
		t.Fatal("phase 1 found no potential races in figure2")
	}
	if rep.RealCount() == 0 {
		t.Fatal("campaign confirmed no races in figure2")
	}

	// A client that connects now opens on the campaign's counters: the
	// snapshot frame carries the totals a scraper needs.
	snap0 := openingSnapshot(t, base)
	counters := map[string]int64{}
	for _, c := range snap0.Counters {
		counters[c.Name] = c.Value
	}
	if want := int64(len(rep.Potential) * opts.Phase2Trials); counters["trials.total"] != want {
		t.Errorf("snapshot trials.total = %d, want %d", counters["trials.total"], want)
	}
	if counters["findings.new"] == 0 {
		t.Errorf("snapshot findings.new = 0 after a confirming campaign: %+v", snap0.Counters)
	}
	dedupSeen := false
	for _, g := range snap0.Gauges {
		dedupSeen = dedupSeen || g.Name == "findings.dedup_rate"
	}
	if !dedupSeen {
		t.Errorf("snapshot has no findings.dedup_rate gauge: %+v", snap0.Gauges)
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

	// Liveness.
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

// TestObservatoryNilServerIsInert pins the zero-overhead contract: every
// accessor and lifecycle method of a nil *Server is a usable no-op, so call
// sites wire the observatory unconditionally.
func TestObservatoryNilServerIsInert(t *testing.T) {
	var s *Server
	if s.Campaign() != nil || s.Prof() != nil {
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
		Probes: core.Probes{Metrics: s.Campaign(), Sink: s.Sink(), Prof: s.Prof()},
	})
}

// TestObservatoryMountsExtraHandlers covers the Handle hook the fleet
// coordinator uses: a handler mounted before Start is served from the
// observatory mux.
func TestObservatoryMountsExtraHandlers(t *testing.T) {
	s := New(Config{})
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

	// Handle is nil-safe like every other accessor.
	var nilServer *Server
	nilServer.Handle("/x", http.NotFoundHandler())
}

// TestObservatoryRetiredEndpoints pins the live plane: /events opens on
// the counter snapshot, /debug/perf, /healthz and a mounted /fleet/status
// answer, and the retired renderings do not. There is no Prometheus
// exposition, fleet health report, dashboard, scheduler introspection or
// live coverage fork: the counters travel in the /events snapshot, fleet
// state on /fleet/status, a trial's state in its flight recording, and the
// frontier in campaignreport -log over the run log.
func TestObservatoryRetiredEndpoints(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	s.Handle("/fleet/status", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"generation":"g-live"}`)
	}))
	if err := s.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	base := "http://" + s.Addr()
	openingSnapshot(t, base)
	for _, path := range []string{"/debug/perf", "/healthz", "/fleet/status"} {
		if _, resp := httpGet(t, base+path); resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/", "/metrics", "/fleet/health", "/debug/sched", "/debug/coverage"} {
		if _, resp := httpGet(t, base+path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// openingSnapshot connects to /events and returns the campaign snapshot the
// stream opens with.
func openingSnapshot(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /events: %v", err)
	}
	frames := make(chan sseEvent, 1)
	go readSSE(resp.Body, frames)
	// Hang up and drain, so the reader goroutine exits before we return.
	defer func() {
		cancel()
		resp.Body.Close()
		for range frames {
		}
	}()
	select {
	case ev := <-frames:
		var parsed obs.StreamEvent
		if ev.name != "snapshot" || json.Unmarshal([]byte(ev.data), &parsed) != nil || parsed.Metrics == nil {
			t.Fatalf("opening frame = %q %s, want a snapshot with metrics", ev.name, ev.data)
		}
		return *parsed.Metrics
	case <-time.After(5 * time.Second):
		t.Fatal("no opening snapshot frame")
	}
	return obs.Snapshot{}
}

// serveChildEnv names the run-log path of the child process
// TestServeSignalClosesRunLog starts.
const serveChildEnv = "OBSERVATORY_SERVE_CHILD_LOG"

// TestServeSignalClosesRunLog sends SIGINT to a process that serves an
// observatory while records sit in its run log's buffer. The process must
// exit 0 and leave a log in which every line is whole JSON.
func TestServeSignalClosesRunLog(t *testing.T) {
	if path := os.Getenv(serveChildEnv); path != "" {
		serveChild(path)
		return
	}
	log := filepath.Join(t.TempDir(), "runs.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeSignalClosesRunLog$")
	cmd.Env = append(os.Environ(), serveChildEnv+"="+log)
	stderr, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	cmd.Stderr = w
	err = cmd.Start()
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	ready := false
	for !ready && sc.Scan() {
		ready = sc.Text() == "ready"
	}
	if !ready {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child never reported ready")
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child after SIGINT: %v, want exit 0", err)
	}
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("run log ends mid-line (%d bytes)", len(data))
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not JSON: %q", i+1, line)
		}
	}
	if len(lines) != serveChildRecords {
		t.Errorf("run log has %d records, want %d", len(lines), serveChildRecords)
	}
}

// serveChildRecords is how many records the child emits before it waits
// for the signal: enough to spill the log's buffer at least once, so the
// file holds a cut record until the log is closed.
const serveChildRecords = 500

// serveChild is the child side of TestServeSignalClosesRunLog: it serves
// an observatory, emits records into an unflushed run log, reports ready
// and waits for the signal to end it.
func serveChild(path string) {
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	jsonl := obs.NewJSONLSink(f)
	s := New(Config{Addr: "127.0.0.1:0"})
	if _, err := s.Serve("child", func() { jsonl.Close() }); err != nil {
		panic(err)
	}
	sinks := obs.MultiSink{jsonl, s.Sink()}
	for i := 0; i < serveChildRecords; i++ {
		sinks.Emit(obs.RunRecord{Label: "serve", Phase: 2, Trial: i, Seed: int64(i)})
	}
	fmt.Fprintln(os.Stderr, "ready")
	time.Sleep(time.Minute)
	os.Exit(3)
}
