// Package observatory is the live window into a running campaign: an
// embedded net/http server (the -http flag on cmd/racefuzzer and
// cmd/benchtable) exposing
//
//	/debug/perf  JSON schedprof aggregates (per-op-kind latency quantiles)
//	/healthz     liveness probe
//
// plus whatever the caller mounts with Handle (the fleet coordinator's
// /fleet/status). The campaign's live record stream is the -json run log:
// with -jsonflush N, campaignreport -log reads its counters and coverage
// frontier mid-run. What one trial did is its flight recording.
//
// The package is also the two commands' one campaign runtime (CLI): the
// shared flags, provenance, corpus, -json run log and probe wiring, with
// Serve's signal path behind them.
//
// Design constraints, in order:
//
//   - Zero overhead when off. A nil *Server returns nil from Prof, and nil
//     probes are no-ops all the way down — with -http unset the campaign
//     runs the unobserved path.
//   - Never perturb the campaign. The server only reads the schedprof
//     collector's aggregates; it never holds up an execution.
//   - Race-free under -race at any Workers width: all shared state is the
//     schedprof package's locked or atomic structures.
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

	"racefuzzer/internal/schedprof"
)

// Server is the embedded campaign monitor. All methods are safe on a nil
// receiver, so call sites wire it unconditionally.
type Server struct {
	addr string
	prof *schedprof.Collector
	mux  *http.ServeMux

	srv *http.Server
	ln  net.Listener
}

// New assembles a server that will listen on addr (e.g. ":8080",
// "127.0.0.1:0"); it is not yet listening.
func New(addr string) *Server {
	s := &Server{
		addr: addr,
		prof: schedprof.NewCollector(),
		mux:  http.NewServeMux(),
	}
	s.mux.HandleFunc("/debug/perf", s.handlePerf)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

// Handle mounts an extra handler on the observatory's mux (e.g. the fleet
// coordinator's /fleet/status), before or after Start. Nil-safe no-op, so
// call sites wire it unconditionally like every other accessor.
func (s *Server) Handle(pattern string, h http.Handler) {
	if s == nil || pattern == "" || h == nil {
		return
	}
	s.mux.Handle(pattern, h)
}

// Prof returns the scheduler performance collector that feeds /debug/perf
// (nil when off, and nil collectors hand out nil trials all the way down).
func (s *Server) Prof() *schedprof.Collector {
	if s == nil {
		return nil
	}
	return s.prof
}

// Start begins listening and serving in the background. Nil-safe no-op.
func (s *Server) Start() error {
	if s == nil {
		return nil
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return nil
}

// Addr returns the bound listen address ("" before Start or when off) —
// with ":0" addresses this is where the ephemeral port surfaces.
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server, draining in-flight requests.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// Serve starts the server for a CLI and announces its address on stderr,
// each line prefixed by tool. SIGINT or SIGTERM then ends the process:
// closeLog runs first, so the run log keeps only whole records, then the
// server drains, and the process exits 0 (1 if the drain fails). The
// returned stop drains the server when the campaign ends normally. closeLog
// is nil when no run log is open. On a nil server Serve starts nothing, but
// an open run log still gets the same signal path; with neither, the
// process keeps Go's default signal handling and stop is a no-op.
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

// handlePerf serves the schedprof campaign aggregates: per-op-kind
// wait/service latency quantiles, enabled-set sizes, round counts and phase
// timings.
func (s *Server) handlePerf(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.prof.Summary()) //nolint:errcheck // best-effort write to client
}
