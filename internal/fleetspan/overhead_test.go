package fleetspan

import (
	"fmt"
	"testing"
)

// hookSink defeats dead-code elimination in the probe benchmarks.
var hookSink int64

// hookHarness mirrors the fleet layer's layout: every hook site loads a
// possibly-nil collector from a struct field, exactly like the coordinator's
// cfg.Spans and the lease table's spans field.
type hookHarness struct{ spans *Collector }

var disabledHarness hookHarness

// probeUnit executes one work unit's worth of disabled hook sites: queue,
// lease, heartbeat, result, ingest — the full lifecycle the coordinator
// walks per unit.
func (h *hookHarness) probeUnit(i int) {
	h.spans.UnitQueued("r1-t0", 1, 0, "t")
	h.spans.UnitLeased("r1-t0", "w1", int64(i))
	h.spans.Heartbeat("w1", "r1-t0", int64(i))
	h.spans.UnitResult("r1-t0", "w1", int64(i), true, "", nil)
	h.spans.UnitIngested("r1-t0")
}

// TestCollectorDisabledOverhead asserts the PR-6 invariant carried forward:
// with no collector attached, the fleetspan hook sites are free. The five
// nil-guarded calls above cover a whole unit lifecycle — orders of magnitude
// rarer than a scheduler step — so the flat few-ns budget obs's
// TestNoopOverhead uses is conservative here.
func TestCollectorDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceDetectorEnabled {
		t.Skip("race detector instruments calls; ns-level timing is meaningless")
	}
	baseline := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hookSink++
		}
	})
	nilPath := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			disabledHarness.probeUnit(i)
			hookSink++
		}
	})
	delta := float64(nilPath.NsPerOp()) - float64(baseline.NsPerOp())
	// Five nil checks should cost well under 2ns each even on slow CI
	// hardware; 10ns total is the same noise-tolerant budget obs uses.
	if delta > 10 {
		t.Fatalf("disabled fleetspan hooks add %.1f ns/unit (baseline %d ns, nil-path %d ns)",
			delta, baseline.NsPerOp(), nilPath.NsPerOp())
	}
	t.Logf("disabled hooks %.2f ns/unit lifecycle", delta)
}

// BenchmarkUnitLifecycleTraced is the cost of the hooks when tracing is on:
// one full queued→ingested lifecycle per op against a live collector.
func BenchmarkUnitLifecycleTraced(b *testing.B) {
	clk := &fakeClock{ns: baseNs}
	c := NewCollector(Config{Token: "bench", Clock: clk})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := unitID(1, i)
		c.UnitQueued(id, 1, i, "t")
		c.UnitLeased(id, "w1", int64(i))
		c.Heartbeat("w1", id, clk.ns)
		c.UnitResult(id, "w1", int64(i), true, "", nil)
		c.UnitIngested(id)
	}
}

// BenchmarkUnitLifecycleDisabled is the same lifecycle through a nil
// collector — the number benchsnap's fleetspan suite tracks against the
// disabled-overhead budget.
func BenchmarkUnitLifecycleDisabled(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := "r1-t0"
		c.UnitQueued(id, 1, i, "t")
		c.UnitLeased(id, "w1", int64(i))
		c.Heartbeat("w1", id, int64(i))
		c.UnitResult(id, "w1", int64(i), true, "", nil)
		c.UnitIngested(id)
	}
}

func unitID(round, ti int) string {
	return fmt.Sprintf("r%d-t%d", round, ti)
}
