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
func startServer(t *testing.T) *Server {
	t.Helper()
	s := New("127.0.0.1:0")
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

// TestObservatoryServesLiveCampaign is the end-to-end path: a real
// two-phase figure2 campaign with a parallel executor feeds the server's
// collector, and /debug/perf and /healthz are read over real HTTP.
func TestObservatoryServesLiveCampaign(t *testing.T) {
	s := startServer(t)
	base := "http://" + s.Addr()

	// Run the campaign against the server's wiring, exactly as the binaries
	// do — parallel executor, corpus dedup, live profiling.
	b := bench.MustByName("figure2")
	opts := core.Options{
		Seed:         1,
		Phase1Trials: 3,
		Phase2Trials: 20,
		Workers:      4,
		Label:        b.Name,
		Corpus:       corpus.NewStore(),
		Probes:       core.Probes{Prof: s.Prof()},
	}
	rep := core.Analyze(b.New(), opts)
	if len(rep.Potential) == 0 {
		t.Fatal("phase 1 found no potential races in figure2")
	}
	if rep.RealCount() == 0 {
		t.Fatal("campaign confirmed no races in figure2")
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

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestObservatoryNilServerIsInert pins the zero-overhead contract: every
// accessor and lifecycle method of a nil *Server is a usable no-op, so call
// sites wire the observatory unconditionally.
func TestObservatoryNilServerIsInert(t *testing.T) {
	var s *Server
	if s.Prof() != nil {
		t.Error("nil server handed out live wiring")
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
		Probes: core.Probes{Prof: s.Prof()},
	})
}

// TestObservatoryMountsExtraHandlers covers the Handle hook the fleet
// coordinator uses: a handler mounted before Start is served from the
// observatory mux.
func TestObservatoryMountsExtraHandlers(t *testing.T) {
	s := New("")
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

// TestObservatoryRetiredEndpoints pins the live plane: /debug/perf,
// /healthz and a mounted /fleet/status answer, and the retired renderings
// do not. There is no event stream, Prometheus exposition, fleet health
// report, dashboard, scheduler introspection or live coverage fork: the
// records and counters travel in the -json run log (campaignreport -log
// reads it mid-run), fleet state on /fleet/status and a trial's state in
// its flight recording.
func TestObservatoryRetiredEndpoints(t *testing.T) {
	s := New("127.0.0.1:0")
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
	for _, path := range []string{"/debug/perf", "/healthz", "/fleet/status"} {
		if _, resp := httpGet(t, base+path); resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/", "/events", "/metrics", "/fleet/health", "/debug/sched", "/debug/coverage"} {
		if _, resp := httpGet(t, base+path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// serveChildEnv names the run-log path of the child process
// TestServeSignalClosesRunLog starts; serveChildHTTPEnv, when set, makes
// the child serve an observatory as well.
const (
	serveChildEnv     = "OBSERVATORY_SERVE_CHILD_LOG"
	serveChildHTTPEnv = "OBSERVATORY_SERVE_CHILD_HTTP"
)

// TestServeSignalClosesRunLog sends SIGINT to a process whose run log holds
// buffered records, once with an observatory (-http) and once without. The
// process must exit 0 and leave a log in which every line is whole JSON.
func TestServeSignalClosesRunLog(t *testing.T) {
	if path := os.Getenv(serveChildEnv); path != "" {
		serveChild(path, os.Getenv(serveChildHTTPEnv) != "")
		return
	}
	for _, tc := range []struct {
		name string
		http bool
	}{{"http", true}, {"nohttp", false}} {
		t.Run(tc.name, func(t *testing.T) {
			log := filepath.Join(t.TempDir(), "runs.jsonl")
			cmd := exec.Command(os.Args[0], "-test.run=^TestServeSignalClosesRunLog$")
			cmd.Env = append(os.Environ(), serveChildEnv+"="+log)
			if tc.http {
				cmd.Env = append(cmd.Env, serveChildHTTPEnv+"=1")
			}
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
		})
	}
}

// serveChildRecords is how many records the child emits before it waits
// for the signal: enough to spill the log's buffer at least once, so the
// file holds a cut record until the log is closed.
const serveChildRecords = 500

// serveChild is the child side of TestServeSignalClosesRunLog: it serves
// an observatory when withHTTP is set (a nil server otherwise), emits
// records into an unflushed run log, reports ready and waits for the
// signal to end it.
func serveChild(path string, withHTTP bool) {
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	jsonl := obs.NewJSONLSink(f)
	var s *Server
	if withHTTP {
		s = New("127.0.0.1:0")
	}
	if _, err := s.Serve("child", func() { jsonl.Close() }); err != nil {
		panic(err)
	}
	for i := 0; i < serveChildRecords; i++ {
		jsonl.Emit(obs.RunRecord{Label: "serve", Phase: 2, Trial: i, Seed: int64(i)})
	}
	fmt.Fprintln(os.Stderr, "ready")
	time.Sleep(time.Minute)
	os.Exit(3)
}
