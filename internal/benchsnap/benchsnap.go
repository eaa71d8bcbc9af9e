// Package benchsnap produces and checks schema-versioned benchmark
// snapshots (the checked-in BENCH_*.json artifacts). A snapshot records what
// a suite of measurements cost on a described host — ns/op, allocs/op,
// scheduler latency quantiles, parallel speedups — so CI can hold the
// current tree against the committed baseline and the repository's perf
// history stays reviewable in ordinary diffs.
//
// The regression policy is split by signal quality (see Compare): wall-clock
// ns/op is machine- and load-dependent, so drift only warns; allocs/op is a
// deterministic property of the code under a fixed workload, so growth
// beyond tolerance is a hard failure.
package benchsnap

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"racefuzzer/internal/schedprof"
)

// SchemaVersion identifies the snapshot layout. Compare refuses to check a
// snapshot against a baseline with a different schema — regenerate the
// baseline instead of guessing at field semantics.
const SchemaVersion = 1

// Host describes the machine a snapshot was measured on. Numbers from
// different hosts are not comparable; the host block makes a baseline's
// provenance explicit in the diff.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentHost describes the running machine. The CPU model comes from
// /proc/cpuinfo when readable (Linux) and degrades to the architecture name
// elsewhere.
func CurrentHost() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}

// Result is one measured benchmark within a suite.
type Result struct {
	Name string `json:"name"`
	// Iters is the number of iterations the calibrated measurement ran.
	Iters int `json:"iters"`
	// NsPerOp is wall-clock nanoseconds per iteration (warn-only in Compare).
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per iteration (hard-fail in Compare).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics carries suite-specific extras (steps/op, real races, …).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is one suite's measurement artifact — the JSON schema of the
// checked-in BENCH_*.json files.
type Snapshot struct {
	Schema      int      `json:"schema"`
	Suite       string   `json:"suite"`
	Description string   `json:"description"`
	Date        string   `json:"date"`
	Host        Host     `json:"host"`
	Benchtime   string   `json:"benchtime"`
	Results     []Result `json:"results"`
	// SchedSummary is the sched suite's per-op-kind latency aggregate
	// (wait/service quantiles), measured by a schedprof.Collector attached to
	// a profiled campaign.
	SchedSummary *schedprof.Summary `json:"sched_summary,omitempty"`
	// SpeedupVsWidth is the parallel suite's wall-clock ratio of the
	// sequential run to each wider executor configuration (>1 = faster).
	SpeedupVsWidth map[string]float64 `json:"speedup_vs_width,omitempty"`
	Note           string             `json:"note,omitempty"`
}

// Stamp fills in the environment-dependent header fields (date, host) that
// the suites leave blank so their measurement logic stays deterministic.
func (s *Snapshot) Stamp(now time.Time) {
	s.Date = now.UTC().Format("2006-01-02")
	s.Host = CurrentHost()
}

// Save writes the snapshot as indented JSON, the checked-in artifact format.
func (s *Snapshot) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// maxSnapshotBytes caps what Load reads. Checked-in snapshots are a few
// KiB; anything past the cap is refused rather than read whole.
const maxSnapshotBytes = 1 << 20

// Load reads a snapshot written by Save.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// decode parses one snapshot, reading at most maxSnapshotBytes of r.
func decode(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxSnapshotBytes {
		return nil, fmt.Errorf("snapshot larger than %d bytes", maxSnapshotBytes)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// measureCapIters bounds calibration growth against pathological clocks.
const measureCapIters = 1 << 20

// Measure times fn with a calibrating iteration loop, growing the count
// until one timed batch spans at least minTime (testing.B's strategy, inside
// a library so cmd/benchsnap needs no test binary). Allocations are the
// process-wide Mallocs delta across the batch divided by iterations: the
// scheduler's worker goroutines allocate on behalf of the run, and a
// per-goroutine counter would miss them.
func Measure(name string, minTime time.Duration, fn func()) Result {
	fn() // warm-up: first-use initialization should not be charged
	n := 1
	for {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		dur := time.Since(start)
		runtime.ReadMemStats(&after)
		if dur >= minTime || n >= measureCapIters {
			return Result{
				Name:        name,
				Iters:       n,
				NsPerOp:     float64(dur.Nanoseconds()) / float64(n),
				AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
			}
		}
		// Predict the iteration count that lands past minTime, with 20%
		// headroom, bounded to [n+1, 100n] like the stdlib harness.
		next := n + 1
		if dur > 0 {
			next = int(1.2 * float64(n) * float64(minTime) / float64(dur))
		}
		if next < n+1 {
			next = n + 1
		}
		if next > 100*n {
			next = 100 * n
		}
		n = next
	}
}
