// Package observatory is the live window into a running campaign: an
// embedded net/http server (the -http flag on cmd/racefuzzer and
// cmd/benchtable) exposing
//
//	/events      a Server-Sent-Events stream: a campaign-counter snapshot,
//	             then run records and findings
//	/debug/perf  JSON schedprof aggregates (per-op-kind latency quantiles)
//	/healthz     liveness probe
//
// plus whatever the caller mounts with Handle (the fleet coordinator's
// /fleet/status). The live coverage frontier is campaignreport -log over a
// -jsonflush run log; what one trial did is its flight recording.
//
// Design constraints, in order:
//
//   - Zero overhead when off. A nil *Server returns nil from every wiring
//     accessor (Campaign, Sink, Prof), and nil probes are no-ops all the
//     way down — with -http unset the campaign runs the unobserved path.
//   - Never perturb the campaign. The server only consumes immutable
//     snapshots and broadcast events; a slow or stuck HTTP client is
//     dropped (bounded per-subscriber buffers), never waited on.
//   - Race-free under -race at any Workers width: all shared state is the
//     obs/schedprof packages' locked or atomic structures.
package observatory

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"racefuzzer/internal/obs"
	"racefuzzer/internal/schedprof"
)

// Config parameterizes New.
type Config struct {
	// Addr is the listen address (e.g. ":8080", "127.0.0.1:0").
	Addr string
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
	prof *schedprof.Collector

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
		prof:  schedprof.NewCollector(),
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

// Prof returns the scheduler performance collector that feeds /debug/perf
// (nil when off, and nil collectors hand out nil trials all the way down).
func (s *Server) Prof() *schedprof.Collector {
	if s == nil {
		return nil
	}
	return s.prof
}

// Sink returns the sink that feeds the event stream; nil when off, so it
// composes with obs.MultiSink unconditionally.
func (s *Server) Sink() obs.Sink {
	if s == nil {
		return nil
	}
	return s.bc
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
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/perf", s.handlePerf)
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

// Serve starts the server for a CLI and announces its address on stderr,
// each line prefixed by tool. SIGINT or SIGTERM then ends the process:
// closeLog runs first, so the run log keeps only whole records, then the
// server sends its shutdown frame and drains, and the process exits 0 (1
// if the drain fails). The returned stop drains the server when the
// campaign ends normally. closeLog is nil when no run log is open. On a
// nil server Serve starts nothing, but an open run log still gets the same
// signal path; with neither, the process keeps Go's default signal
// handling and stop is a no-op.
func (s *Server) Serve(tool string, closeLog func()) (stop func(), err error) {
	if s == nil && closeLog == nil {
		return func() {}, nil
	}
	drain := func() error { return nil }
	if s != nil {
		if err := s.Start(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: observatory listening on http://%s\n", tool, s.Addr())
		drain = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err := s.Shutdown(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: observatory shutdown: %v\n", tool, err)
			}
			return err
		}
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		if closeLog != nil {
			closeLog()
		}
		if drain() != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}()
	return func() { _ = drain() }, nil
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

// handlePerf serves the schedprof campaign aggregates: per-op-kind
// wait/service latency quantiles, enabled-set sizes, round counts and phase
// timings.
func (s *Server) handlePerf(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.prof.Summary()) //nolint:errcheck // best-effort write to client
}
