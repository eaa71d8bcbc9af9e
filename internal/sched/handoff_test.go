package sched

// Tests for the grant engine: handoff storms that hammer the per-thread
// grant channels (meant to run under -race), a fuzz-style determinism check
// over generated programs, scripted multi-grant decisions, shutdown of
// never-started threads, scheduler-side panics, and regressions for the
// force-release order of a dying thread's locks and for round counting
// without a flight recorder.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
)

// flightLog is a test observer that renders every decision and action to
// strings, giving a comparable full causal trace without importing flightrec
// (which depends on this package).
type flightLog struct {
	lines []string
}

func (f *flightLog) OnEvent(event.Event)         {}
func (f *flightLog) OnDecision(d DecisionRecord) { f.lines = append(f.lines, d.String()) }
func (f *flightLog) OnAction(a ActionRecord)     { f.lines = append(f.lines, a.String()) }

// stormProgram builds a width-w program that stresses every handoff path at
// once: workers contend on a shared monitor with wait/notify, the main
// thread interrupts both waiting and running workers, and every thread
// performs interleaved memory ops and nops so the enabled set keeps
// changing shape.
func stormProgram(w int) func(*Thread) {
	sW := stmt("storm:w")
	sAcq := stmt("storm:acq")
	sRel := stmt("storm:rel")
	sWait := stmt("storm:wait")
	sSig := stmt("storm:sig")
	return func(mt *Thread) {
		s := mt.Scheduler()
		mon := s.NewLock("mon")
		loc := s.NewLoc("cell")
		pending := 0
		workers := make([]*Thread, w)
		for i := range workers {
			workers[i] = mt.Fork(fmt.Sprintf("w%d", i), func(c *Thread) {
				for r := 0; r < 4; r++ {
					c.Nop(sW)
					c.LockAcquire(mon, sAcq)
					c.MemWrite(loc, sW)
					pending++
					c.MonitorNotify(mon, sSig)
					c.LockRelease(mon, sRel)
					if c.IsInterrupted() {
						c.ClearInterrupt()
					}
				}
			})
		}
		waiter := mt.Fork("waiter", func(c *Thread) {
			c.LockAcquire(mon, sAcq)
			for pending < w {
				c.MemRead(loc, sW)
				func() {
					defer func() {
						// An interrupt may end the wait; swallow it and keep
						// waiting — the storm interrupts indiscriminately. The
						// monitor is held again when the wait throws, so the
						// loop can simply re-check the predicate.
						if r := recover(); r != nil {
							mp, ok := r.(modelPanic)
							if !ok || !errors.Is(mp.err, ErrInterruptedWait) {
								panic(r)
							}
						}
					}()
					c.MonitorWait(mon, sWait)
				}()
			}
			c.LockRelease(mon, sRel)
		})
		for i := 0; i < 2*w; i++ {
			mt.Nop(sW)
			mt.Interrupt(workers[i%w])
		}
		mt.Interrupt(waiter)
		for _, wk := range workers {
			mt.Join(wk)
		}
		mt.LockAcquire(mon, sAcq)
		mt.MonitorNotifyAll(mon, sSig)
		mt.LockRelease(mon, sRel)
		mt.Join(waiter)
	}
}

// TestHandoffStorm runs the storm at widths 1, 4 and 8 across seeds. Under
// -race this exercises self grants, direct thread-to-thread handoffs and
// first grants that start a forked thread's goroutine.
func TestHandoffStorm(t *testing.T) {
	for _, w := range []int{1, 4, 8} {
		w := w
		t.Run(fmt.Sprintf("width=%d", w), func(t *testing.T) {
			for seed := int64(1); seed <= 25; seed++ {
				res := Run(stormProgram(w), Config{Seed: seed, Name: "storm"})
				if res.Deadlock != nil {
					t.Fatalf("width %d seed %d: unexpected %v", w, seed, res.Deadlock)
				}
				if res.Aborted {
					t.Fatalf("width %d seed %d: aborted after %d steps", w, seed, res.Steps)
				}
				for _, ex := range res.Exceptions {
					t.Fatalf("width %d seed %d: unexpected exception %v", w, seed, ex)
				}
			}
		})
	}
}

// TestShutdownStorm aborts executions by step limit while threads sit in
// every blocked state (lock-blocked, waiting, join-blocked): the shutdown
// unwind must terminate every goroutine without leaks or races.
func TestShutdownStorm(t *testing.T) {
	for _, w := range []int{1, 4, 8} {
		for seed := int64(1); seed <= 25; seed++ {
			res := Run(stormProgram(w), Config{Seed: seed, MaxSteps: 20 + int(seed)})
			if !res.Aborted && res.Steps > 20+int(seed) {
				t.Fatalf("width %d seed %d: ran %d steps past limit", w, seed, res.Steps)
			}
		}
	}
}

// genProgram deterministically generates a random model program from g:
// a random number of workers executing random op sequences over shared
// locks and locations, with occasional nested forks, throws and interrupts.
// Equal generator seeds build behaviorally identical programs.
func genProgram(genSeed int64) func(*Thread) {
	sOp := stmt("gen:op")
	return func(mt *Thread) {
		g := rng.New(genSeed)
		s := mt.Scheduler()
		nLocks := 1 + g.Intn(3)
		nLocs := 1 + g.Intn(3)
		locks := make([]event.LockID, nLocks)
		for i := range locks {
			locks[i] = s.NewLock(fmt.Sprintf("L%d", i))
		}
		locs := make([]event.MemLoc, nLocs)
		for i := range locs {
			locs[i] = s.NewLoc(fmt.Sprintf("x%d", i))
		}
		var body func(depth int) func(*Thread)
		body = func(depth int) func(*Thread) {
			// Pre-draw the op script so every fork body is a pure function
			// of the generator stream, independent of schedule order.
			n := 3 + g.Intn(8)
			script := make([][2]int, n)
			for i := range script {
				script[i] = [2]int{g.Intn(10), g.Intn(nLocks * nLocs)}
			}
			forkChild := depth < 2 && g.Bool()
			var childBody func(*Thread)
			if forkChild {
				childBody = body(depth + 1)
			}
			throwAtEnd := g.Intn(4) == 0
			return func(c *Thread) {
				var kid *Thread
				if forkChild {
					kid = c.Fork("kid", childBody)
				}
				held := -1
				for _, op := range script {
					lk := locks[op[1]%nLocks]
					lc := locs[op[1]%nLocs]
					switch op[0] {
					case 0, 1:
						c.MemRead(lc, sOp)
					case 2, 3:
						c.MemWrite(lc, sOp)
					case 4:
						if held < 0 {
							c.LockAcquire(lk, sOp)
							held = int(lk)
						}
					case 5:
						if held >= 0 {
							c.LockRelease(event.LockID(held), sOp)
							held = -1
						}
					case 6:
						if kid != nil {
							c.Interrupt(kid)
						}
					case 7:
						if c.IsInterrupted() {
							c.ClearInterrupt()
						}
					default:
						c.Nop(sOp)
					}
				}
				if held >= 0 && !throwAtEnd {
					c.LockRelease(event.LockID(held), sOp)
				}
				if kid != nil {
					c.Join(kid)
				}
				if throwAtEnd {
					c.Throw(errors.New("gen: die"))
				}
			}
		}
		nWorkers := 1 + g.Intn(4)
		kids := make([]*Thread, nWorkers)
		bodies := make([]func(*Thread), nWorkers)
		for i := range kids {
			bodies[i] = body(0)
		}
		for i := range kids {
			kids[i] = mt.Fork("worker", bodies[i])
		}
		for _, k := range kids {
			mt.Join(k)
		}
	}
}

// traceRun executes one generated program and returns its full causal
// record: every event, every decision (with RNG draw counts), and the
// Result rendered to text.
func traceRun(genSeed, schedSeed int64) string {
	rec := &recorder{}
	fl := &flightLog{}
	res := Run(genProgram(genSeed), Config{
		Seed: schedSeed, Observers: []Observer{rec, fl}, Name: "gen",
	})
	var b strings.Builder
	for _, l := range rec.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	for _, l := range fl.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "steps=%d threads=%d rounds=%d stalls=%d aborted=%v exceptions=%d deadlock=%v\n",
		res.Steps, res.Threads, res.Rounds, res.PolicyStalls, res.Aborted, len(res.Exceptions),
		res.Deadlock != nil)
	return b.String()
}

// TestGeneratedProgramDeterminism is the fuzz-style replay check: random
// programs, each run twice with the same seed, must produce byte-identical
// causal records — events, decisions, draw counts, and Result. This is the
// paper's lightweight-replay guarantee exercised across the fast path,
// handoff, thread death with held locks, and interrupts.
func TestGeneratedProgramDeterminism(t *testing.T) {
	for genSeed := int64(1); genSeed <= 30; genSeed++ {
		for _, schedSeed := range []int64{3, 77} {
			a := traceRun(genSeed, schedSeed)
			b := traceRun(genSeed, schedSeed)
			if a != b {
				t.Fatalf("gen %d seed %d: two runs diverged\n--- first:\n%s\n--- second:\n%s",
					genSeed, schedSeed, a, b)
			}
		}
	}
}

// TestThreadDeathReleasesLocksInOrder pins the force-release order of a
// thread that dies holding multiple locks: the unlock events must appear in
// ascending lock-ID order on every run. (The pre-fix implementation iterated
// a Go map, so the order — and therefore replayed traces — varied between
// runs of the same seed.)
func TestThreadDeathReleasesLocksInOrder(t *testing.T) {
	sAcq := stmt("rel:acq")
	prog := func(mt *Thread) {
		s := mt.Scheduler()
		l0 := s.NewLock("A")
		l1 := s.NewLock("B")
		child := mt.Fork("dying", func(c *Thread) {
			// Acquire in descending ID order so ascending release order can't
			// come from acquisition order by accident.
			c.LockAcquire(l1, sAcq)
			c.LockAcquire(l0, sAcq)
			c.Throw(errors.New("boom"))
		})
		mt.Join(child)
	}
	for seed := int64(1); seed <= 50; seed++ {
		rec := &recorder{}
		res := Run(prog, Config{Seed: seed, Observers: []Observer{rec}})
		if len(res.Exceptions) != 1 {
			t.Fatalf("seed %d: exceptions = %v", seed, res.Exceptions)
		}
		var rels []string
		for _, l := range rec.lines {
			if strings.Contains(l, "UNLOCK") {
				rels = append(rels, l)
			}
		}
		if len(rels) != 2 {
			t.Fatalf("seed %d: want 2 forced releases, got %v", seed, rels)
		}
		if !strings.Contains(rels[0], "UNLOCK(L0") || !strings.Contains(rels[1], "UNLOCK(L1") {
			t.Fatalf("seed %d: forced releases out of ascending lock order: %v", seed, rels)
		}
	}
}

// TestRoundsCountedWithoutRecorder pins the decision-round counter fix: the
// counter must advance identically whether or not a decision observer is
// attached (it used to advance only inside the recorder delivery path), and
// a decision-only observer sees exactly one decision per round.
func TestRoundsCountedWithoutRecorder(t *testing.T) {
	var final int
	plain := Run(counterProgram(3, 10, &final), Config{Seed: 9})
	dc := &decisionCounter{}
	recorded := Run(counterProgram(3, 10, &final), Config{Seed: 9, Observers: []Observer{dc}})
	if plain.Rounds == 0 {
		t.Fatal("Rounds not counted without a recorder")
	}
	if plain.Rounds != recorded.Rounds {
		t.Fatalf("Rounds depends on observer wiring: %d without recorder, %d with",
			plain.Rounds, recorded.Rounds)
	}
	if dc.decisions != recorded.Rounds {
		t.Fatalf("observer saw %d decisions, Result.Rounds = %d", dc.decisions, recorded.Rounds)
	}
	if plain.Steps != recorded.Steps {
		t.Fatalf("observer perturbed the schedule: steps %d vs %d", plain.Steps, recorded.Steps)
	}
	// Forced grants past a stalled policy are rounds too.
	dc = &decisionCounter{}
	stalled := Run(counterProgram(2, 3, &final), Config{Seed: 1, Policy: alwaysEmptyPolicy{}, Observers: []Observer{dc}})
	if stalled.PolicyStalls == 0 || dc.decisions != stalled.Rounds {
		t.Fatalf("stalled run: %d decisions, %d rounds, %d stalls", dc.decisions, stalled.Rounds, stalled.PolicyStalls)
	}
}

// batchPolicy grants batch, once, in the first round trigger accepts, and
// otherwise the lowest enabled thread not about to take a lock (so lock
// acquisitions wait for the scripted batch). No randomness is drawn.
type batchPolicy struct {
	trigger func(v *View) bool
	batch   []event.ThreadID
	fired   bool
}

func (*batchPolicy) Name() string { return "batch" }

func (p *batchPolicy) Step(v *View, r *rng.Rand) Decision {
	if !p.fired && p.trigger(v) {
		p.fired = true
		return Decision{Grants: append([]event.ThreadID(nil), p.batch...)}
	}
	for _, t := range v.Enabled {
		if v.Op(t).Kind != OpLock {
			return v.Grant(t)
		}
	}
	return v.Grant(v.Enabled[0])
}

// TestBatchDecisions drives multi-grant decisions through the scheduler:
// members are granted in order without a new round in between, a member
// disabled by an earlier grant is skipped, and the round after the batch
// is decided from the state the batch left, whichever goroutine decides
// it. Each case pins the decision that follows the batch and must
// replay identically on every run.
func TestBatchDecisions(t *testing.T) {
	sOp := stmt("batch:op")
	nops := func(n int) func(*Thread) {
		return func(c *Thread) {
			for i := 0; i < n; i++ {
				c.Nop(sOp)
			}
		}
	}
	pending := func(kind OpKind, tids ...event.ThreadID) func(v *View) bool {
		return func(v *View) bool {
			for _, tid := range tids {
				if int(tid) >= v.Threads() || !v.IsEnabled(tid) || v.Op(tid).Kind != kind {
					return false
				}
			}
			return true
		}
	}
	cases := []struct {
		name    string
		prog    func(*Thread)
		trigger func(v *View) bool
		batch   []event.ThreadID
		// want is the decision right after the batch, rounds and draws
		// elided: "step N: enabled=[...] grants=[...]".
		want string
	}{
		{
			// T1's lock grant disables T2, which is pending on the same
			// lock: T2 is skipped and the next decision is a new round at
			// the very next step, with T2 no longer enabled.
			name: "skip-disabled-member",
			prog: func(mt *Thread) {
				l := mt.Scheduler().NewLock("L")
				body := func(c *Thread) {
					c.LockAcquire(l, sOp)
					c.Nop(sOp)
					c.LockRelease(l, sOp)
				}
				t1 := mt.Fork("t1", body)
				t2 := mt.Fork("t2", body)
				mt.Join(t1)
				mt.Join(t2)
			},
			trigger: pending(OpLock, 1, 2),
			batch:   []event.ThreadID{1, 2},
			want:    "step 6: enabled=[T1] grants=[T1]",
		},
		{
			// T0's fork creates T2 parked at Begin; T0's next park grants
			// T1 from the batch before any new round, which then sees T2
			// still at Begin.
			name: "fork-in-batch",
			prog: func(mt *Thread) {
				t1 := mt.Fork("t1", nops(1))
				t2 := mt.Fork("t2", nops(1))
				mt.Join(t1)
				mt.Join(t2)
			},
			trigger: func(v *View) bool { return pending(OpFork, 0)(v) && pending(OpBegin, 1)(v) },
			batch:   []event.ThreadID{0, 1},
			want:    "step 4: enabled=[T1 T2] grants=[T1]",
		},
		{
			// The batch's last grant is T1's last op: T1 exits with every
			// other thread parked, so its exit handoff decides the next
			// round, in which T0's join of T1 is enabled.
			name: "exit-drives-next-round",
			prog: func(mt *Thread) {
				t1 := mt.Fork("t1", nops(1))
				t2 := mt.Fork("t2", nops(1))
				mt.Join(t1)
				mt.Join(t2)
			},
			trigger: func(v *View) bool { return pending(OpNop, 1)(v) && pending(OpBegin, 2)(v) },
			batch:   []event.ThreadID{2, 1},
			want:    "step 6: enabled=[T0 T2] grants=[T0]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first []string
			for run := 0; run < 20; run++ {
				fl := &flightLog{}
				pol := &batchPolicy{trigger: tc.trigger, batch: tc.batch}
				res := Run(tc.prog, Config{Seed: 1, Policy: pol, Observers: []Observer{fl}})
				if res.Deadlock != nil || res.Aborted || len(res.Exceptions) != 0 {
					t.Fatalf("run %d: deadlock=%v aborted=%v exceptions=%v",
						run, res.Deadlock, res.Aborted, res.Exceptions)
				}
				if !pol.fired {
					t.Fatalf("trigger never matched:\n%s", strings.Join(fl.lines, "\n"))
				}
				if run == 0 {
					first = fl.lines
					continue
				}
				if got, want := strings.Join(fl.lines, "\n"), strings.Join(first, "\n"); got != want {
					t.Fatalf("run %d diverged:\n%s\n--- first run:\n%s", run, got, want)
				}
			}
			batch := "grants=" + threadList(tc.batch)
			for i, l := range first {
				if !strings.Contains(l, batch) {
					continue
				}
				if i+1 == len(first) {
					t.Fatalf("no decision after the batch:\n%s", strings.Join(first, "\n"))
				}
				next := first[i+1]
				if got := next[strings.Index(next, "step"):strings.Index(next, " draws")]; got != tc.want {
					t.Fatalf("decision after the batch = %q, want %q\n%s", got, tc.want, strings.Join(first, "\n"))
				}
				return
			}
			t.Fatalf("batch %s never decided:\n%s", batch, strings.Join(first, "\n"))
		})
	}
}

// awaitGoroutines polls until the goroutine count is back to before: a
// dying goroutine's final send can reach Run's goroutine before the dying
// one has returned.
func awaitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: before=%d after=%d", before, g)
	}
}

// firstEnabledPolicy grants the lowest enabled thread, drawing no
// randomness: a forking main thread keeps the step, so its children stay
// unstarted until it blocks.
func firstEnabledPolicy() Policy {
	return policyFunc(func(v *View, _ *rng.Rand) Decision { return v.Grant(v.Enabled[0]) })
}

// TestUnstartedChildrenShutdown forks children and hits MaxSteps before
// any of them is granted: shutdown must unwind threads whose goroutine
// never started. Every child counts in Result.Threads, no exception is
// recorded, no child body runs, and no goroutine outlives Run.
func TestUnstartedChildrenShutdown(t *testing.T) {
	const k = 6
	for maxSteps := 1; maxSteps <= k; maxSteps++ {
		before := runtime.NumGoroutine()
		forks, ran := 0, 0
		prog := func(mt *Thread) {
			kids := make([]*Thread, k)
			for i := range kids {
				kids[i] = mt.Fork(fmt.Sprintf("kid%d", i), func(c *Thread) {
					ran++
					c.Nop(stmt("kid"))
				})
				forks++
			}
			for _, kid := range kids {
				mt.Join(kid)
			}
		}
		rec := &recorder{}
		res := Run(prog, Config{Seed: 1, MaxSteps: maxSteps, Policy: firstEnabledPolicy(), Observers: []Observer{rec}})
		if !res.Aborted || res.Steps != maxSteps {
			t.Fatalf("MaxSteps %d: aborted=%v steps=%d", maxSteps, res.Aborted, res.Steps)
		}
		// T0's Begin takes step 1, each later step forks one child.
		if forks != maxSteps-1 || res.Threads != 1+forks {
			t.Fatalf("MaxSteps %d: %d forks, Result.Threads = %d", maxSteps, forks, res.Threads)
		}
		if ran != 0 || len(res.Exceptions) != 0 {
			t.Fatalf("MaxSteps %d: %d child bodies ran, exceptions %v", maxSteps, ran, res.Exceptions)
		}
		// Each unwound thread, started or not, delivers its exit message.
		exits := 0
		for _, l := range rec.lines {
			if strings.HasPrefix(l, "SND") {
				exits++
			}
		}
		if want := 2*forks + 1; exits != want {
			t.Fatalf("MaxSteps %d: %d SND events, want %d (one per fork, one per exit):\n%s",
				maxSteps, exits, want, strings.Join(rec.lines, "\n"))
		}
		awaitGoroutines(t, before)
	}
}

// crashValue is a panic value only the scheduler-panic test throws, so the
// re-panic can be matched by identity.
type crashValue struct{ where string }

// panicObserver panics with val on an event or decision once the matching
// predicate holds (nil: never).
type panicObserver struct {
	val             *crashValue
	event, decision func() bool
}

func (p *panicObserver) OnEvent(event.Event) {
	if p.event != nil && p.event() {
		panic(p.val)
	}
}

func (p *panicObserver) OnDecision(DecisionRecord) {
	if p.decision != nil && p.decision() {
		panic(p.val)
	}
}

// fromCall returns a predicate that holds from its nth call on.
func fromCall(n int) func() bool {
	calls := 0
	return func() bool { calls++; return calls >= n }
}

// TestSchedulerPanicEndsRun is the regression for a panicking Policy.Step
// or observer, which used to hang Run forever: the panic must end the run,
// unwind every model goroutine, and re-panic out of Run with the original
// value on the caller's goroutine, never as a model exception. Each case
// runs under a timeout, and afterwards a clean run on the recycled
// scheduler must record no exception.
func TestSchedulerPanicEndsRun(t *testing.T) {
	randomUntil := func(panics func() bool, val *crashValue) Policy {
		return policyFunc(func(v *View, r *rng.Rand) Decision {
			if panics() {
				panic(val)
			}
			return v.Grant(v.Enabled[r.Intn(len(v.Enabled))])
		})
	}
	cases := []struct {
		name string
		// cfg builds the faulty config; s is the run's scheduler once
		// the main thread has started.
		cfg func(val *crashValue, s **Scheduler) Config
	}{
		{"policy-first-round", func(val *crashValue, _ **Scheduler) Config {
			return Config{Policy: randomUntil(fromCall(1), val)}
		}},
		{"policy-fifth-round", func(val *crashValue, _ **Scheduler) Config {
			return Config{Policy: randomUntil(fromCall(5), val)}
		}},
		{"policy-late-round", func(val *crashValue, _ **Scheduler) Config {
			return Config{Policy: randomUntil(fromCall(40), val)}
		}},
		{"observer-event", func(val *crashValue, _ **Scheduler) Config {
			return Config{Observers: []Observer{&panicObserver{val: val, event: fromCall(7)}}}
		}},
		{"observer-decision", func(val *crashValue, _ **Scheduler) Config {
			return Config{Observers: []Observer{&panicObserver{val: val, decision: fromCall(9)}}}
		}},
		{"observer-during-shutdown", func(val *crashValue, s **Scheduler) Config {
			// The step limit ends the run; the observer panics on every
			// event of the shutdown unwind, first on a thread's exit.
			inShutdown := func() bool { return *s != nil && (*s).aborted }
			return Config{MaxSteps: 12, Observers: []Observer{&panicObserver{val: val, event: inShutdown}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				before := runtime.NumGoroutine()
				val := &crashValue{where: tc.name}
				var s *Scheduler
				cfg := tc.cfg(val, &s)
				cfg.Seed = seed
				storm := stormProgram(4)
				prog := func(mt *Thread) {
					s = mt.Scheduler()
					storm(mt)
				}
				var (
					got  any
					res  *Result
					done = make(chan struct{})
				)
				go func() {
					defer close(done)
					defer func() { got = recover() }()
					res = Run(prog, cfg)
				}()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("seed %d: Run did not return after a scheduler-side panic", seed)
				}
				if got != val {
					t.Fatalf("seed %d: Run re-panicked with %v (result %+v), want the original %v", seed, got, res, val)
				}
				awaitGoroutines(t, before)
				clean := Run(stormProgram(4), Config{Seed: seed})
				if len(clean.Exceptions) != 0 || clean.Aborted || clean.Deadlock != nil {
					t.Fatalf("seed %d: run after the panic: exceptions %v aborted %v deadlock %v",
						seed, clean.Exceptions, clean.Aborted, clean.Deadlock)
				}
			}
		})
	}
}
