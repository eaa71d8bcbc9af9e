package benchsnap

import (
	"fmt"
	"time"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// SuiteOptions parameterizes a suite run.
type SuiteOptions struct {
	// Seed is the base seed for every measured execution (default 12345 —
	// the repository's experiment seed).
	Seed int64
	// Benchtime is the minimum timed span per measurement (default 200ms).
	Benchtime time.Duration
	// Note is carried verbatim into the snapshot.
	Note string
}

func (o SuiteOptions) withDefaults() SuiteOptions {
	if o.Seed == 0 {
		o.Seed = 12345
	}
	if o.Benchtime <= 0 {
		o.Benchtime = 200 * time.Millisecond
	}
	return o
}

// Suites names the suites cmd/benchsnap can run.
func Suites() []string { return []string{"sched"} }

// RunSuite dispatches by suite name. The returned timeline (may be nil) is
// a Perfetto-exportable sample trial for CI failure artifacts.
func RunSuite(suite string, o SuiteOptions) (*Snapshot, *schedprof.Timeline, error) {
	switch suite {
	case "sched":
		s, tl := SchedSuite(o)
		return s, tl, nil
	default:
		return nil, nil, fmt.Errorf("unknown suite %q (have %v)", suite, Suites())
	}
}

// schedWorkloads are the grant-loop micro-workloads (bench/micro.go): one
// enabled thread, two alternating, and a wide fan-out. Step counts differ
// per shape, so each result also reports steps/op and ns/step.
var schedWorkloads = []struct {
	name string
	prog func() bench.Program
}{
	{"grant_serial/ops=256", func() bench.Program { return bench.GrantSerial(256) }},
	{"grant_ping/rounds=64", func() bench.Program { return bench.GrantPing(64) }},
	{"grant_fanout/threads=8,ops=16", func() bench.Program { return bench.GrantFanout(8, 16) }},
}

// SchedSuite measures the scheduler substrate: the grant-loop micros with
// profiling off (the product configuration), the serial micro again with a
// schedprof trial attached (so the probes' cost is itself a tracked number),
// and a profiled pass over every workload that yields the per-op-kind
// wait/service latency quantiles. The returned timeline is one profiled
// fan-out trial, exportable as a Perfetto trace.
func SchedSuite(o SuiteOptions) (*Snapshot, *schedprof.Timeline) {
	o = o.withDefaults()
	snap := &Snapshot{
		Schema: SchemaVersion,
		Suite:  "sched",
		Description: "Scheduler grant-loop micro-benchmarks (bench/micro.go workloads) " +
			"with per-op-kind latency quantiles from a schedprof-profiled pass. " +
			"allocs_per_op regressions are hard CI failures; ns_per_op drift warns.",
		Benchtime: o.Benchtime.String(),
		Note:      o.Note,
	}

	for _, w := range schedWorkloads {
		w := w
		var steps int
		var i int64
		res := Measure(w.name, o.Benchtime, func() {
			r := sched.Run(w.prog(), sched.Config{Seed: o.Seed + i, Policy: sched.NewRandomPolicy()})
			steps = r.Steps
			i++
		})
		res.Metrics = map[string]float64{
			"steps_per_op": float64(steps),
			"ns_per_step":  res.NsPerOp / float64(steps),
		}
		snap.Results = append(snap.Results, res)
	}

	// The steady-state pooled trial: program and policy are built once and
	// millions of runs recycle one scheduler tree through the pool, the way
	// a fuzzing campaign's inner loop does. After warmup the engine itself
	// allocates nothing per round; what remains per run is the Result, the
	// model program's own fork-body closures, and goroutine start — so this
	// number is the floor the per-construction workloads above sit on.
	{
		prog := bench.GrantSerial(256)
		pol := sched.NewRandomPolicy()
		var steps int
		var i int64
		for ; i < 16; i++ { // warm the pool and the stmt caches
			sched.Run(prog, sched.Config{Seed: o.Seed + i, Policy: pol})
		}
		res := Measure("grant_serial_steady/ops=256", o.Benchtime, func() {
			r := sched.Run(prog, sched.Config{Seed: o.Seed + i, Policy: pol})
			steps = r.Steps
			i++
		})
		res.Metrics = map[string]float64{
			"steps_per_op": float64(steps),
			"ns_per_step":  res.NsPerOp / float64(steps),
		}
		snap.Results = append(snap.Results, res)
	}

	// The serial micro with profiling on: the delta against grant_serial is
	// the whole probe cost, tracked release over release. A collector-backed
	// trial is reused through the pool exactly as campaigns use it.
	prof := schedprof.NewCollector()
	{
		var steps int
		var i int64
		res := Measure("grant_serial_profiled/ops=256", o.Benchtime, func() {
			tr := prof.StartTrial("benchsnap", o.Seed+i)
			r := sched.Run(bench.GrantSerial(256), sched.Config{
				Seed: o.Seed + i, Policy: sched.NewRandomPolicy(), Prof: tr,
			})
			prof.FinishTrial(tr)
			steps = r.Steps
			i++
		})
		res.Metrics = map[string]float64{
			"steps_per_op": float64(steps),
			"ns_per_step":  res.NsPerOp / float64(steps),
		}
		snap.Results = append(snap.Results, res)
	}

	// Latency quantiles: a fixed profiled pass over every workload shape
	// (fresh collector so the measurement loop above doesn't skew counts).
	lat := schedprof.NewCollector()
	const latTrials = 20
	var timeline *schedprof.Timeline
	for _, w := range schedWorkloads {
		for i := 0; i < latTrials; i++ {
			tr := lat.StartTrial(w.name, o.Seed+int64(i))
			sched.Run(w.prog(), sched.Config{Seed: o.Seed + int64(i), Policy: sched.NewRandomPolicy(), Prof: tr})
			if timeline == nil && w.name == schedWorkloads[len(schedWorkloads)-1].name {
				timeline = tr.Timeline()
			}
			lat.FinishTrial(tr)
		}
	}
	sum := lat.Summary()
	snap.SchedSummary = &sum
	return snap, timeline
}
