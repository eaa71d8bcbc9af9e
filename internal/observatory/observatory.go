// Package observatory is the live window into a running campaign: an
// embedded net/http server (the -http flag on cmd/racefuzzer and
// cmd/benchtable) exposing
//
//	/            an embedded HTML dashboard rendering the SSE stream
//	/events      a Server-Sent-Events stream: a campaign-counter snapshot,
//	            then run records and findings
//	/debug/sched JSON snapshots of live scheduler state (wait-for graph)
//	/debug/perf  JSON schedprof aggregates (per-op-kind latency quantiles)
//	/debug/coverage JSON coverage frontier (discovery curve, Chao1 estimate)
//	/healthz     liveness probe
//
// Design constraints, in order:
//
//   - Zero overhead when off. A nil *Server returns nil from every wiring
//     accessor (Sink, Introspector, Prof), and nil sinks/introspectors
//     are no-ops all the way down — with -http unset the campaign runs the
//     byte-for-byte PR-4 code path.
//   - Never perturb the campaign. The server only consumes immutable
//     snapshots and broadcast events; a slow or stuck HTTP client is
//     dropped (bounded per-subscriber buffers), never waited on.
//   - Race-free under -race at any Workers width: all shared state is the
//     obs/sched packages' locked or atomic structures.
package observatory

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"racefuzzer/internal/obs"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

//go:embed dashboard.html
var dashboardHTML []byte

// Config parameterizes New.
type Config struct {
	// Addr is the listen address (e.g. ":8080", "127.0.0.1:0").
	Addr string
	// Label names the campaign on the dashboard.
	Label string
	// Campaign is the aggregator the /events snapshot and shutdown frames
	// carry; New creates one when nil.
	Campaign *obs.CampaignMetrics
	// EventBuffer is the per-subscriber event buffer (default 256).
	EventBuffer int
}

// Server is the embedded campaign monitor. All methods are safe on a nil
// receiver, so call sites wire it unconditionally.
type Server struct {
	cfg  Config
	camp *obs.CampaignMetrics
	bc   *obs.Broadcast
	insp *sched.Introspector
	prof *schedprof.Collector
	cov  *coverageTracker

	extra map[string]http.Handler

	srv *http.Server
	ln  net.Listener
}

// New assembles a server (not yet listening).
func New(cfg Config) *Server {
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	camp := cfg.Campaign
	if camp == nil {
		camp = obs.NewCampaignMetrics()
	}
	return &Server{
		cfg:   cfg,
		camp:  camp,
		bc:    obs.NewBroadcast(),
		insp:  sched.NewIntrospector(),
		prof:  schedprof.NewCollector(),
		cov:   newCoverageTracker(),
		extra: make(map[string]http.Handler),
	}
}

// Handle mounts an extra handler on the observatory's mux (e.g. the fleet
// coordinator's /fleet/status). Call before Start; nil-safe no-op, so call
// sites wire it unconditionally like every other accessor.
func (s *Server) Handle(pattern string, h http.Handler) {
	if s == nil || pattern == "" || h == nil {
		return
	}
	s.extra[pattern] = h
}

// Campaign returns the aggregator the event stream snapshots (nil when off).
func (s *Server) Campaign() *obs.CampaignMetrics {
	if s == nil {
		return nil
	}
	return s.camp
}

// Introspector returns the scheduler introspection hook (nil when off).
func (s *Server) Introspector() *sched.Introspector {
	if s == nil {
		return nil
	}
	return s.insp
}

// Prof returns the scheduler performance collector that feeds /debug/perf
// (nil when off, and nil collectors hand out nil trials all the way down).
func (s *Server) Prof() *schedprof.Collector {
	if s == nil {
		return nil
	}
	return s.prof
}

// Sink returns the sink that feeds the event stream and the coverage
// tracker; nil when off, so it composes with obs.MultiSink unconditionally.
func (s *Server) Sink() obs.Sink {
	if s == nil {
		return nil
	}
	return serverSink{s}
}

// serverSink adapts the server to obs.Sink without exposing Emit on a
// possibly-nil *Server through a non-nil interface.
type serverSink struct{ s *Server }

// Emit feeds the coverage tracker and fans the record out to subscribers.
func (w serverSink) Emit(rec obs.RunRecord) {
	s := w.s
	s.cov.observe(rec)
	s.bc.Emit(rec)
}

// Start begins listening and serving in the background. Nil-safe no-op.
func (s *Server) Start() error {
	if s == nil {
		return nil
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleDashboard)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/sched", s.handleSched)
	mux.HandleFunc("/debug/perf", s.handlePerf)
	mux.HandleFunc("/debug/coverage", s.handleCoverage)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	for pattern, h := range s.extra {
		mux.Handle(pattern, h)
	}
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return nil
}

// Addr returns the bound listen address ("" before Start or when off) —
// with ":0" configs this is where the ephemeral port surfaces.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: it publishes one final "shutdown"
// event carrying the closing campaign snapshot, closes every subscriber
// (unblocking their SSE handlers), and drains the HTTP server.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	final := s.camp.Snapshot()
	s.bc.Publish(obs.StreamEvent{Type: "shutdown", Metrics: &final})
	s.bc.Close()
	return s.srv.Shutdown(ctx)
}

// handleDashboard serves the embedded single-file dashboard.
func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}

// handleEvents serves the SSE stream: an opening "snapshot" event with the
// current campaign state, then every broadcast event until the client
// disconnects, falls behind, or the server shuts down.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	sub := s.bc.Subscribe(s.cfg.EventBuffer)
	defer sub.Close()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	snap := s.camp.Snapshot()
	writeSSE(w, obs.StreamEvent{Type: "snapshot", Seq: -1, Metrics: &snap})
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.Events():
			if !open {
				return
			}
			if err := writeSSE(w, ev); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSE renders one event in SSE wire format.
func writeSSE(w http.ResponseWriter, ev obs.StreamEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// handleSched serves live scheduler-state snapshots.
func (s *Server) handleSched(w http.ResponseWriter, r *http.Request) {
	timeout := 150 * time.Millisecond
	if t := r.URL.Query().Get("timeout"); t != "" {
		if d, err := time.ParseDuration(t); err == nil && d > 0 && d <= 5*time.Second {
			timeout = d
		}
	}
	snap := s.insp.Snapshot(timeout)
	// Present active runs in a stable order for scripted consumers.
	sort.Slice(snap.Active, func(i, j int) bool { return snap.Active[i].RunID < snap.Active[j].RunID })
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) //nolint:errcheck // best-effort write to client
}

// handlePerf serves the schedprof campaign aggregates: per-op-kind
// wait/service latency quantiles, enabled-set sizes, round counts and phase
// timings.
func (s *Server) handlePerf(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.prof.Summary()) //nolint:errcheck // best-effort write to client
}
