package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	// minPasses and maxPasses bound a run's passes whatever --seconds says.
	minPasses = 3
	maxPasses = 200
	// passCycle is how many distinct pass seeds a run cycles through. A run
	// that gets through more passes repeats them rather than taking on new
	// inputs, so what it measures does not depend on how fast it went.
	passCycle = 4
)

type runConfig struct {
	seed     int64
	seconds  time.Duration
	traceDir string
}

// passOut is what one pass did and whether it was right.
type passOut struct {
	// execs counts the scheduler executions the pass's pipelines made
	// (fleet: the campaign's phase-2 budget trials); witness re-runs are
	// not counted.
	execs int64
	// wall is the time spent inside the measured calls.
	wall time.Duration
	// digest hashes every verdict of the pass.
	digest string
	// ops counts analyses (fleet: leases); failed counts the ops that
	// failed a correctness check.
	ops, failed int
}

func (p passOut) rate() float64 { return float64(p.execs) / p.wall.Seconds() }

// workload is one benchmark input family.
type workload interface {
	// setup builds the inputs of a run with seed and warms the process up
	// with a small untimed pass at width 1.
	setup(seed int64) error
	// pass runs pass seed at executor width. With a non-nil ledger every
	// layer seam is timed into it; the verdict digest must not change.
	pass(seed int64, width int, l *ledger) (passOut, error)
}

// pairs is a series of passes, each run once at width N and once at width 1.
type pairs struct {
	seeds        []int64
	digests      []string // width N
	rateN, rate1 []float64
	// mallocs and allocBytes sum the width-N passes' allocations; execsN
	// their executions.
	mallocs, allocBytes uint64
	execsN              int64
	attempted, failed   int
	// setups holds the seconds of each timed set-up.
	setups []float64
}

// runPairs runs passes seed, seed+1, ..., seed+passCycle-1, seed, ... until
// budget is spent (and at least minPasses), alternating which width goes
// first. It starts a pass pair only while the pair is expected to end at
// most half a pair past budget. The width-1 and width-N verdict digests of
// a pass must be equal.
//
// With timeSetups, every pair is preceded by a timed set-up, outside the
// budget. Spreading the set-ups over the run, rather than running them back
// to back at its start, makes their median see the same machine as the
// passes do.
func runPairs(name string, w workload, seed int64, width int, budget time.Duration, timeSetups bool) (pairs, error) {
	var p pairs
	widths := []int{width, 1}
	if width == 1 {
		widths = widths[:1]
	}
	var spent, last time.Duration
	for k := 0; k < maxPasses; k++ {
		if k >= minPasses && spent+last/2 > budget {
			break
		}
		if timeSetups {
			start := time.Now()
			if err := w.setup(seed); err != nil {
				return p, err
			}
			p.setups = append(p.setups, time.Since(start).Seconds())
		}
		pairStart := time.Now()
		s := seed + int64(k%passCycle)
		var digests []string
		for j := range widths {
			wd := widths[(j+k)%len(widths)]
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, err := w.pass(s, wd, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				return p, err
			}
			if wd == width {
				p.rateN = append(p.rateN, out.rate())
				p.mallocs += after.Mallocs - before.Mallocs
				p.allocBytes += after.TotalAlloc - before.TotalAlloc
				p.execsN += out.execs
				p.digests = append(p.digests, out.digest)
			}
			if wd == 1 {
				p.rate1 = append(p.rate1, out.rate())
			}
			p.attempted += out.ops
			p.failed += out.failed
			digests = append(digests, out.digest)
		}
		if len(digests) == 2 && digests[0] != digests[1] {
			fmt.Printf("check: %s pass %d: width-1 and width-%d verdicts differ\n", name, s, width)
			p.failed++
		}
		p.seeds = append(p.seeds, s)
		last = time.Since(pairStart)
		spent += last
	}
	return p, nil
}

// runMeasured is the untraced run: the end-to-end metrics.
func runMeasured(name string, w workload, cfg runConfig) (runResult, error) {
	res := runResult{Workload: name, Seed: cfg.seed, Width: executorWidth()}
	stopHeap := sampleHeap()
	p, err := runPairs(name, w, cfg.seed, res.Width, cfg.seconds, true)
	heap := stopHeap()
	if err != nil {
		return res, err
	}
	res.Passes, res.Attempted, res.Failed = len(p.seeds), p.attempted, p.failed
	res.Correct = res.Failed == 0
	res.Metrics = []metric{
		{"trials_per_s", median(p.rateN), "1/s"},
		{"trials_per_s_w1", median(p.rate1), "1/s"},
		{"allocs_per_trial", float64(p.mallocs) / float64(p.execsN), "count"},
		{"bytes_per_trial", float64(p.allocBytes) / float64(p.execsN), "B"},
		{"heap_live_p90_mb", heap, "MiB"},
		{"setup_s", median(p.setups), "s"},
	}
	fmt.Printf("%s passes %d count\n", name, res.Passes)
	fmt.Printf("%s trials_per_s.iqr %s ratio\n", name, fmtFloat(iqrFrac(p.rateN)))
	fmt.Printf("%s trials_per_s_w1.iqr %s ratio\n", name, fmtFloat(iqrFrac(p.rate1)))
	return res, nil
}

// runTraced is the traced run: paired untraced passes for half the time,
// the same width-N passes again with every layer seam timed, then (phase1
// only) Table 1's overhead probe. It returns the per-layer metrics and
// writes the spans and a CPU profile of the traced passes.
func runTraced(name string, w workload, cfg runConfig) (runResult, error) {
	res := runResult{Workload: name, Seed: cfg.seed, Width: executorWidth(), Traced: true}
	if err := w.setup(cfg.seed); err != nil {
		return res, err
	}
	p, err := runPairs(name, w, cfg.seed, res.Width, cfg.seconds/2, false)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = p.attempted, p.failed

	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return res, err
	}
	prof, err := os.Create(filepath.Join(cfg.traceDir, name+".cpu.pprof"))
	if err != nil {
		return res, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return res, err
	}
	l := newLedger(name)
	endWorkload := l.begin("workload", name)
	var traced []float64
	for i, seed := range p.seeds {
		runtime.GC()
		end := l.beginPass(seed)
		out, err := w.pass(seed, res.Width, l)
		end()
		if err != nil {
			pprof.StopCPUProfile()
			return res, err
		}
		traced = append(traced, out.rate())
		res.Attempted += out.ops
		res.Failed += out.failed
		if out.digest != p.digests[i] {
			fmt.Printf("check: %s pass %d: traced verdicts differ from untraced\n", name, seed)
			res.Failed++
		}
		res.Passes++
	}
	endWorkload()
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return res, err
	}

	if name == "phase1" {
		probeOverhead(l, cfg.seed)
	}
	if len(p.rate1) > 0 {
		l.values["core.executor_speedup"] = median(p.rateN) / median(p.rate1)
	}
	l.values["trace.overhead_frac"] = 1 - median(traced)/median(p.rateN)
	if err := l.saveSpans(filepath.Join(cfg.traceDir, name+".spans.json")); err != nil {
		return res, err
	}
	res.Metrics = l.metrics()
	res.Correct = res.Failed == 0
	return res, nil
}

// sampleHeap samples the live heap (/gc/heap/live:bytes, as of the last
// GC) every 10 ms until the returned stop function is called; stop returns
// the 90th percentile of the samples in MiB once the sampler has exited.
// The maximum would depend on where single GC cycles happen to land; the
// 90th percentile repeats within a few percent from run to run.
func sampleHeap() (stop func() float64) {
	quit := make(chan struct{})
	p90 := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var mib []float64
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				mib = append(mib, float64(s[0].Value.Uint64())/(1<<20))
			}
			select {
			case <-quit:
				p90 <- quantile(mib, 0.9)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-p90
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// iqrFrac is the interquartile range as a share of the median.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}
