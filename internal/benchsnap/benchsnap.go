// Package benchsnap holds a campaign benchmark snapshot against a baseline.
// A snapshot is the --out file of campaignbench, the repository's end-to-end
// benchmark; the checked-in baseline is BENCH_campaign.json. Compare checks
// each workload's allocs_per_trial, which is a property of the code under a
// fixed seed, not of the machine's load, so it can gate CI where wall clock
// cannot. It checks nothing else.
package benchsnap

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

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

// AllocsBound is the fractional allocs_per_trial growth over the baseline
// that fails Compare: the allocs_per_trial bound of BENCHMARK.json.
const AllocsBound = 0.05

// Snapshot is the part of a campaignbench snapshot that Compare reads.
type Snapshot struct {
	Schema     int  `json:"schema"`
	Host       Host `json:"host"`
	Provenance struct {
		Go     string `json:"go"`
		Commit string `json:"commit"`
	} `json:"provenance"`
	Runs []Run `json:"runs"`
}

// Run is one workload's run within a snapshot.
type Run struct {
	Workload string `json:"workload"`
	// Width is the executor width the run measured at (the host's CPU count
	// as the process saw it).
	Width   int `json:"width"`
	Metrics []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// allocs returns the run's allocs_per_trial.
func (r Run) allocs() (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == "allocs_per_trial" {
			return m.Value, true
		}
	}
	return 0, false
}

// maxSnapshotBytes caps what Load reads. Snapshots are a few KiB; anything
// past the cap is refused rather than read whole.
const maxSnapshotBytes = 1 << 20

// Load reads a snapshot.
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

// decode parses one snapshot, reading at most maxSnapshotBytes of r. It
// refuses a workload named twice, a width below 1 and a metric that is
// negative or not finite.
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
	seen := make(map[string]bool, len(s.Runs))
	for _, r := range s.Runs {
		if seen[r.Workload] {
			return nil, fmt.Errorf("workload %q appears twice", r.Workload)
		}
		seen[r.Workload] = true
		if r.Width < 1 {
			return nil, fmt.Errorf("%s: width %d", r.Workload, r.Width)
		}
		for _, m := range r.Metrics {
			if m.Value < 0 || math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
				return nil, fmt.Errorf("%s: %s = %v", r.Workload, m.Name, m.Value)
			}
		}
	}
	return &s, nil
}

// Compare holds cur against base, workload by workload. margins has one
// line per workload within the bound; failures has one per workload over
// it, missing from cur or without allocs_per_trial, or a single line when
// the schemas differ. A workload that cur measured at another width than
// base is not compared at all: width moves allocs_per_trial by several
// percent, so Compare returns an error instead of a verdict.
func Compare(base, cur *Snapshot) (margins, failures []string, err error) {
	if base.Schema != cur.Schema {
		return nil, []string{fmt.Sprintf("schema %d, baseline schema %d", cur.Schema, base.Schema)}, nil
	}
	byName := make(map[string]Run, len(cur.Runs))
	for _, r := range cur.Runs {
		byName[r.Workload] = r
	}
	for _, b := range base.Runs {
		if c, ok := byName[b.Workload]; ok && c.Width != b.Width {
			return nil, nil, fmt.Errorf("%s measured at width %d, baseline at width %d", b.Workload, c.Width, b.Width)
		}
	}
	for _, b := range base.Runs {
		c, ok := byName[b.Workload]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not measured", b.Workload))
			continue
		}
		bv, bok := b.allocs()
		cv, cok := c.allocs()
		if !bok || !cok {
			failures = append(failures, fmt.Sprintf("%s: no allocs_per_trial", b.Workload))
			continue
		}
		line := fmt.Sprintf("%s (width %d): allocs_per_trial %.2f, baseline %.2f, %+.2f%% (bound +%.0f%%)",
			b.Workload, b.Width, cv, bv, 100*(cv/bv-1), 100*AllocsBound)
		if cv > bv*(1+AllocsBound) {
			failures = append(failures, line)
		} else {
			margins = append(margins, line)
		}
	}
	return margins, failures, nil
}
