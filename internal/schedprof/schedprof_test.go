package schedprof_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
	"racefuzzer/internal/schedprof"
)

// nops is a one-thread program of exactly steps grants: its begin, then
// steps-1 explicit scheduling points.
func nops(steps int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		for i := 1; i < steps; i++ {
			t.Nop(event.NoStmt)
		}
	}
}

// counterProgram is internal/sched's test workload of the same name: it
// forks n threads that each increment a shared counter k times under a
// lock, joins them and stores the count in *final.
func counterProgram(n, k int, final *int) func(*sched.Thread) {
	return func(t *sched.Thread) {
		s := t.Scheduler()
		loc := s.NewLoc("counter")
		lk := s.NewLock("L")
		val := 0
		kids := make([]*sched.Thread, n)
		for i := 0; i < n; i++ {
			kids[i] = t.Fork(fmt.Sprintf("w%d", i), func(c *sched.Thread) {
				for j := 0; j < k; j++ {
					c.LockAcquire(lk, event.StmtFor("acq"))
					c.MemRead(loc, event.StmtFor("read"))
					v := val
					c.MemWrite(loc, event.StmtFor("write"))
					val = v + 1
					c.LockRelease(lk, event.StmtFor("rel"))
				}
			})
		}
		for _, kid := range kids {
			t.Join(kid)
		}
		*final = val
	}
}

func TestRingWraparound(t *testing.T) {
	tr := schedprof.NewTrial("wrap", 7, 8)
	sched.Run(nops(20), sched.Config{Seed: 7, Prof: tr})
	if got := tr.Spans(); got != 20 {
		t.Fatalf("Spans() = %d, want 20", got)
	}
	if got := tr.Dropped(); got != 12 {
		t.Fatalf("Dropped() = %d, want 12", got)
	}
	tl := schedprof.TimelineOf(tr)
	if len(tl.Spans) != 8 {
		t.Fatalf("timeline holds %d spans, want 8 (ring capacity)", len(tl.Spans))
	}
	if tl.Dropped != 12 {
		t.Fatalf("timeline Dropped = %d, want 12", tl.Dropped)
	}
	// The survivors are the 8 most recent grants, in chronological order.
	for i, sp := range tl.Spans {
		wantStep := int32(13 + i)
		if sp.Step != wantStep {
			t.Errorf("span %d: step %d, want %d", i, sp.Step, wantStep)
		}
	}
}

func TestTimelineBeforeWraparound(t *testing.T) {
	tr := schedprof.NewTrial("small", 1, 16)
	// main: begin, fork, join; child: begin, nop.
	sched.Run(func(mt *sched.Thread) {
		mt.Join(mt.Fork("child", nops(2)))
	}, sched.Config{Seed: 1, Prof: tr})
	tl := schedprof.TimelineOf(tr)
	if len(tl.Spans) != 5 || tl.Dropped != 0 {
		t.Fatalf("got %d spans, dropped %d; want 5, 0", len(tl.Spans), tl.Dropped)
	}
	if len(tl.Threads) != 2 || tl.Threads[1] != "child" {
		t.Fatalf("threads = %v", tl.Threads)
	}
	for i := 1; i < len(tl.Spans); i++ {
		if tl.Spans[i].StartNs < tl.Spans[i-1].StartNs {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
}

// stallFirst grants the lowest enabled thread, except at step 0, where it
// returns empty rounds until the scheduler forces the first grant.
type stallFirst struct{}

func (stallFirst) Name() string { return "stall-first" }

func (stallFirst) Step(v *sched.View, _ *rng.Rand) sched.Decision {
	if v.Step == 0 {
		return sched.Decision{}
	}
	return v.Grant(v.Enabled[0])
}

// TestCollectorAggregates folds real runs whose profile is fixed by the
// program and policy, and checks the summary's exact totals, its means
// against the trials' own sums, and its enabled-set and phase views. The
// probes' own arithmetic is pinned by internal/sched's
// TestProfProbesRecordExactTotals.
func TestCollectorAggregates(t *testing.T) {
	// main: begin, fork, nop, join; child: begin, nop. At step 0 only main
	// is enabled and stallFirst returns empty rounds until the 19th
	// (2*threads+16 is the scheduler's patience) forces main's begin. Then
	// one round per step: 1 enabled (fork), 2 (main's nop, child's begin),
	// 1, 1, 1 (child's begin and nop, main's join).
	prog := func(mt *sched.Thread) {
		child := mt.Fork("child", nops(2))
		mt.Nop(event.NoStmt)
		mt.Join(child)
	}
	c := schedprof.NewCollector()
	var sums sched.ProfCounts
	var wallNs int64
	for trial := 0; trial < 3; trial++ {
		tr := c.StartTrial("agg", int64(trial))
		sched.Run(prog, sched.Config{Seed: int64(trial), Policy: stallFirst{}, Prof: tr})
		sums.Add(&tr.ProfCounts)
		wallNs += tr.Phase[sched.PhaseDone]
		c.FinishTrial(tr)
	}
	s := c.Summary()
	if s.Trials != 3 {
		t.Fatalf("Trials = %d, want 3", s.Trials)
	}
	if s.Grants != 18 || s.SampledSpans != 18 || s.DroppedSpans != 0 {
		t.Fatalf("Grants/Sampled/Dropped = %d/%d/%d, want 18/18/0", s.Grants, s.SampledSpans, s.DroppedSpans)
	}
	if s.Rounds != 72 || s.EmptyRounds != 57 || s.ForcedGrants != 3 {
		t.Fatalf("Rounds/Empty/Forced = %d/%d/%d, want 72/57/3", s.Rounds, s.EmptyRounds, s.ForcedGrants)
	}
	wantOps := []struct {
		kind  sched.OpKind
		count int64
	}{{sched.OpBegin, 6}, {sched.OpFork, 3}, {sched.OpJoin, 3}, {sched.OpNop, 6}}
	if len(s.Ops) != len(wantOps) {
		t.Fatalf("Ops = %+v, want begin/fork/join/nop", s.Ops)
	}
	for i, w := range wantOps {
		op := s.Ops[i]
		if op.Kind != w.kind.String() || op.Count != w.count {
			t.Fatalf("Ops[%d] = %s x%d, want %s x%d", i, op.Kind, op.Count, w.kind, w.count)
		}
		wait := float64(sums.WaitSum[w.kind]) / float64(w.count)
		svc := float64(sums.SvcSum[w.kind]) / float64(w.count)
		if op.Wait.MeanNs != wait || op.Service.MeanNs != svc {
			t.Fatalf("%s means = %v / %v, want %v / %v (exact from totals)", op.Kind, op.Wait.MeanNs, op.Service.MeanNs, wait, svc)
		}
	}
	if s.EnabledMax != 2 || s.EnabledMean != 25.0/24 {
		t.Fatalf("enabled mean/max = %v/%d, want %v/2", s.EnabledMean, s.EnabledMax, 25.0/24)
	}
	if len(s.Phases) != 3 || s.Phases[0].Phase != "startup" || s.Phases[1].Count != 3 {
		t.Fatalf("Phases = %+v", s.Phases)
	}
	if s.Switches != sums.Switches || s.Switches == 0 || s.WallNs != wallNs || wallNs <= 0 {
		t.Fatalf("Switches/WallNs = %d/%d, want %d/%d", s.Switches, s.WallNs, sums.Switches, wallNs)
	}
	// The scheduler table: the exact counts in report order (only the op
	// kinds granted), then the enabled-set and wall-time gauges.
	snap := s.Snapshot()
	var rows []string
	for _, c := range snap.Counters {
		rows = append(rows, fmt.Sprintf("%s=%d", c.Name, c.Value))
	}
	for _, g := range snap.Gauges {
		rows = append(rows, g.Name)
	}
	want := fmt.Sprintf("trials=3 rounds=72 rounds.empty=57 grants=18 grants.begin=6 grants.fork=3 grants.join=3 grants.nop=6 "+
		"grants.forced=3 switches=%d actions.postpone=0 actions.resume=0 actions.livelock-break=0 actions.race=0 "+
		"actions.violation=0 enabled.mean enabled.max wall.seconds", s.Switches)
	if got := strings.Join(rows, " "); got != want {
		t.Fatalf("scheduler table rows:\n got %s\nwant %s", got, want)
	}
}

// TestSummaryQuantileOrdering checks the sampled lock latencies of a real
// run: quantiles in order, nonzero, and the maxima exactly those of the
// ring's spans.
func TestSummaryQuantileOrdering(t *testing.T) {
	c := schedprof.NewCollector()
	tr := c.StartTrial("q", 1)
	var final int
	sched.Run(counterProgram(2, 100, &final), sched.Config{Seed: 1, Prof: tr})
	var locks int64
	var maxWait, maxSvc float64
	for _, sp := range tr.Ring()[:tr.Spans()] {
		if sched.OpKind(sp.Kind) == sched.OpLock {
			locks++
			maxWait = max(maxWait, float64(sp.WaitNs))
			maxSvc = max(maxSvc, float64(sp.DurNs))
		}
	}
	c.FinishTrial(tr)
	if locks != 200 {
		t.Fatalf("run granted %d locks, want 200", locks)
	}
	var op schedprof.OpSummary
	for _, o := range c.Summary().Ops {
		if o.Kind == sched.OpLock.String() {
			op = o
		}
	}
	for _, l := range []schedprof.LatencySummary{op.Wait, op.Service} {
		if !(l.P50 <= l.P90 && l.P90 <= l.P99 && l.P99 <= l.MaxNs) {
			t.Fatalf("quantiles out of order: %+v", l)
		}
		if l.P50 <= 0 {
			t.Fatalf("zero p50: %+v", l)
		}
	}
	if op.Wait.MaxNs != maxWait || op.Service.MaxNs != maxSvc {
		t.Fatalf("wait/service max = %v/%v, want %v/%v", op.Wait.MaxNs, op.Service.MaxNs, maxWait, maxSvc)
	}
}

func TestCollectorConcurrentTrials(t *testing.T) {
	c := schedprof.NewCollector()
	const workers, trialsPer, grantsPer = 8, 25, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < trialsPer; i++ {
				seed := int64(w*1000 + i)
				tr := c.StartTrial("conc", seed)
				sched.Run(nops(grantsPer), sched.Config{Seed: seed, Prof: tr})
				c.FinishTrial(tr)
			}
		}(w)
	}
	wg.Wait()
	s := c.Summary()
	if want := int64(workers * trialsPer); s.Trials != want {
		t.Fatalf("Trials = %d, want %d", s.Trials, want)
	}
	if want := int64(workers * trialsPer * grantsPer); s.Grants != want || s.SampledSpans != want {
		t.Fatalf("Grants = %d, Sampled = %d, want %d", s.Grants, s.SampledSpans, want)
	}
}

// TestProfCollectorOnRealRuns drives pooled collector trials through real
// executions and sanity-checks the aggregate.
func TestProfCollectorOnRealRuns(t *testing.T) {
	c := schedprof.NewCollector()
	for seed := int64(0); seed < 5; seed++ {
		var final int
		tr := c.StartTrial(fmt.Sprintf("run%d", seed), seed)
		sched.Run(counterProgram(2, 5, &final), sched.Config{Seed: seed, Prof: tr})
		c.FinishTrial(tr)
	}
	s := c.Summary()
	if s.Trials != 5 {
		t.Fatalf("Trials = %d, want 5", s.Trials)
	}
	if s.Grants == 0 || s.Rounds == 0 || len(s.Ops) == 0 {
		t.Fatalf("empty summary from real runs: %+v", s)
	}
	if s.EnabledMax < 1 {
		t.Fatalf("EnabledMax = %d", s.EnabledMax)
	}
	if len(s.Phases) != 3 {
		t.Fatalf("Phases = %+v, want startup/loop/teardown", s.Phases)
	}
}

func TestNilSafety(t *testing.T) {
	var c *schedprof.Collector
	tr := c.StartTrial("nil", 1)
	if tr != nil {
		t.Fatalf("nil collector handed out a trial")
	}
	// A nil trial is what sched.Config.Prof holds with profiling off; the
	// scheduler guards its probes, and the readers must be inert.
	if tr.Spans() != 0 || tr.Dropped() != 0 || schedprof.TimelineOf(tr) != nil {
		t.Fatal("nil trial not inert")
	}
	c.FinishTrial(tr)
	s := c.Summary()
	if s.Trials != 0 || len(s.Ops) != 0 {
		t.Fatalf("nil collector summary = %+v", s)
	}
	if c.Trials() != 0 {
		t.Fatal("nil Trials() != 0")
	}
}

func TestTrialPoolReuse(t *testing.T) {
	c := schedprof.NewCollector()
	t1 := c.StartTrial("a", 1)
	sched.Run(nops(2), sched.Config{Seed: 1, Prof: t1})
	if t1.Spans() == 0 || len(t1.Threads) == 0 {
		t.Fatalf("first trial recorded nothing")
	}
	c.FinishTrial(t1)
	t2 := c.StartTrial("b", 2)
	if t2.Spans() != 0 {
		t.Fatalf("reused trial carries %d stale spans", t2.Spans())
	}
	if tl := schedprof.TimelineOf(t2); len(tl.Threads) != 0 || len(tl.Spans) != 0 {
		t.Fatalf("reused trial timeline not empty: %+v", tl)
	}
	c.FinishTrial(t2)
}

// BenchmarkGrantLoopProfiled is internal/sched's BenchmarkGrantLoopUnprofiled
// workload with a pooled collector trial attached: the cost of profiling
// when on.
func BenchmarkGrantLoopProfiled(b *testing.B) {
	c := schedprof.NewCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var final int
		tr := c.StartTrial("bench", 42)
		sched.Run(counterProgram(2, 10, &final), sched.Config{Seed: 42, Prof: tr})
		c.FinishTrial(tr)
	}
}
