package fleetspan_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"racefuzzer/internal/analytics"
	"racefuzzer/internal/fleetspan"
)

// stepClock advances one millisecond per reading.
type stepClock struct{ ns int64 }

func (c *stepClock) Now() time.Time {
	c.ns += int64(time.Millisecond)
	return time.Unix(0, c.ns)
}

// FuzzLoadTrails feeds arbitrary bytes to the span-trail decoder: every
// input must load or return an error, and an accepted trail must export to
// Perfetto and analyze and render as markdown and CSV without panicking.
func FuzzLoadTrails(f *testing.F) {
	// Seed: a requeued, a dropped and a stitched ingested attempt, as the
	// collector writes them.
	clk := &stepClock{ns: 1_000_000_000_000}
	c := fleetspan.NewCollector(fleetspan.Config{Token: "fuzz", Clock: clk})
	c.UnitQueued("r1-t0", 1, 0, "figure2")
	c.UnitLeased("r1-t0", "w1", 1)
	c.UnitRequeued("r1-t0")
	c.UnitLeased("r1-t0", "w2", 2)
	c.Heartbeat("w2", "r1-t0", clk.ns+int64(time.Second))
	c.UnitResult("r1-t0", "w1", 1, false, "stale lease epoch", nil)
	sent := clk.ns + int64(time.Second)
	c.UnitResult("r1-t0", "w2", 2, true, "", &fleetspan.WorkerSpans{
		LeaseRecvNs: sent - 4e6, ExecStartNs: sent - 3e6, ExecEndNs: sent - 1e6, PostedNs: sent,
	})
	c.UnitIngested("r1-t0")
	dir := f.TempDir()
	path := filepath.Join(dir, fleetspan.TrailFile)
	if err := fleetspan.WriteTrails(path, c.Trails()); err != nil {
		f.Fatal(err)
	}
	trail, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trail)
	f.Add(append(append([]byte(nil), trail...), `{"schema":1,"spanId":"fuzz/r1`...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		trails, err := fleetspan.LoadTrails(path)
		if err != nil {
			return
		}
		if err := fleetspan.WriteTrace(io.Discard, trails); err != nil {
			t.Fatalf("accepted trail does not export: %v", err)
		}
		r := analytics.Analyze(&analytics.Campaign{Trails: trails, SpansName: fleetspan.TrailFile})
		analytics.Markdown(r)
		analytics.CSV(r)
	})
}
