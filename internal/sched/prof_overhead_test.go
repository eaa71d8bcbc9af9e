package sched

import "testing"

// profSink defeats dead-code elimination in the probe benchmarks.
var profSink int64

// profHarness mirrors the scheduler's layout: probes load a possibly-nil
// trial pointer from a struct field, exactly like s.prof.
type profHarness struct{ prof *ProfTrial }

var disabledHarness profHarness

// probeRound executes one scheduler step's worth of disabled probe sites:
// the park stamp, the round record, and the grant's two clock reads plus
// span write — each behind the same `!= nil` guard the scheduler uses.
func (h *profHarness) probeRound(i int) {
	if h.prof != nil {
		profSink += h.prof.clock() // handlePark stamp
	}
	if h.prof != nil {
		h.prof.round(2, 1)
	}
	if h.prof != nil {
		start := h.prof.clock()
		h.prof.grant(OpWrite, 0, i, start, 0, h.prof.clock()-start)
	}
}

// TestProfDisabledOverhead asserts the tentpole invariant: with no trial
// attached, the schedprof probe sites add at most 1% to the measured cost
// of a real scheduler step. The step cost is measured from an actual
// workload run (thread-to-thread handoffs dominate it); the probe cost
// is the nil-guarded sites in isolation, mirroring obs's TestNoopOverhead.
func TestProfDisabledOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceDetectorEnabled {
		t.Skip("race detector instruments calls; ns-level timing is meaningless")
	}
	var steps int
	run := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var final int
			res := Run(counterProgram(2, 10, &final), Config{Seed: 42})
			steps = res.Steps
		}
	})
	if steps == 0 {
		t.Fatal("workload ran zero steps")
	}
	perStep := nsPerOp(run) / float64(steps)

	baseline := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			profSink++
		}
	})
	nilPath := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			disabledHarness.probeRound(i)
			profSink++
		}
	})
	// Fractional ns/op: NsPerOp truncates to whole nanoseconds, which at
	// this scale would let rounding, not the probes, decide the verdict.
	baseNs, nilNs := nsPerOp(baseline), nsPerOp(nilPath)
	delta := nilNs - baseNs
	budget := 0.01 * perStep
	if budget < 2 {
		budget = 2 // benchmark timer noise floor
	}
	if delta > budget {
		t.Fatalf("disabled probes add %.2f ns/step, budget %.2f ns (1%% of %.0f ns/step; baseline %.2f ns, nil-path %.2f ns)",
			delta, budget, perStep, baseNs, nilNs)
	}
	t.Logf("step %.0f ns; disabled probes %.2f ns/step (%.3f%%)", perStep, delta, 100*delta/perStep)
}

// nsPerOp is r's mean cost per operation without NsPerOp's truncation.
func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// BenchmarkGrantLoopUnprofiled is the raw grant-loop cost: ns/op divided by
// the step count gives the per-grant round-trip the ROADMAP's hot-path
// optimization targets. The profiled twin, BenchmarkGrantLoopProfiled, is
// in internal/schedprof, which owns the collector it measures.
func BenchmarkGrantLoopUnprofiled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var final int
		Run(counterProgram(2, 10, &final), Config{Seed: 42})
	}
}
