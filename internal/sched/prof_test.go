package sched

import "testing"

// profRing is the span-ring capacity of the tests' trials: larger than any
// of their runs, so nothing wraps.
const profRing = 4096

// TestProfCapturesEveryGrant runs a real workload with a trial attached and
// checks the profile matches the execution: one span per scheduler step,
// correct thread names, monotonic phases.
func TestProfCapturesEveryGrant(t *testing.T) {
	var final int
	tr := NewProfTrial("counter", 11, profRing)
	res := Run(counterProgram(3, 10, &final), Config{Seed: 11, Prof: tr})
	if final != 30 {
		t.Fatalf("counter = %d, want 30", final)
	}
	if got := tr.Spans(); got != int64(res.Steps) {
		t.Fatalf("profiled %d spans, scheduler ran %d steps", got, res.Steps)
	}
	if len(tr.Threads) != res.Threads {
		t.Fatalf("profile has %d threads, run created %d", len(tr.Threads), res.Threads)
	}
	if tr.Threads[0] != "main" || tr.Threads[1] != "w0" {
		t.Fatalf("thread names = %v", tr.Threads)
	}
	if !(tr.Phase[PhaseLoopEnter] <= tr.Phase[PhaseLoopExit] &&
		tr.Phase[PhaseLoopExit] <= tr.Phase[PhaseDone] &&
		tr.Phase[PhaseDone] > 0) {
		t.Fatalf("phase marks not monotonic: %v", tr.Phase)
	}
	// Per-kind counts must reflect the program: 3 forks, 3 joins, and a
	// lock/read/write/unlock quartet per increment.
	counts := map[string]int64{}
	spans := tr.Ring()[:tr.Spans()]
	for _, sp := range spans {
		counts[OpKind(sp.Kind).String()]++
	}
	for kind, want := range map[string]int64{
		"fork": 3, "join": 3, "lock": 30, "unlock": 30, "write": 30, "begin": 4,
	} {
		if counts[kind] != want {
			t.Errorf("%s grants = %d, want %d (all: %v)", kind, counts[kind], want, counts)
		}
	}
	for i, sp := range spans {
		if sp.Step != int32(i+1) {
			t.Fatalf("span %d carries step %d, want %d", i, sp.Step, i+1)
		}
		if sp.DurNs < 0 || sp.WaitNs < 0 || sp.StartNs < 0 {
			t.Fatalf("span %d has negative time: %+v", i, sp)
		}
	}
}

// TestProfWaitLatencyIsLive pins the park→grant wait measurement: every
// thread parks before its op is granted, so waits must be positive on real
// clocks. Regression test for reading t.parkedNs after the granted thread
// had already re-parked (which made every wait negative, clamped to zero).
func TestProfWaitLatencyIsLive(t *testing.T) {
	var final int
	tr := NewProfTrial("wait", 7, profRing)
	Run(counterProgram(3, 10, &final), Config{Seed: 7, Prof: tr})
	spans := tr.Ring()[:tr.Spans()]
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	var zero int
	for _, sp := range spans {
		if sp.WaitNs == 0 {
			zero++
		}
	}
	// Every grant follows a park, so a dead probe shows as all-zero waits.
	// Individual spans may legitimately round to 0 on a coarse clock, but
	// the whole trial cannot.
	if zero == len(spans) {
		t.Fatalf("all %d spans have WaitNs == 0: wait probe is dead", len(spans))
	}
}

// TestProfDoesNotPerturbSchedule replays the same seed with and without a
// trial attached; the event streams must be identical (profiling draws no
// randomness and takes no scheduling decisions).
func TestProfDoesNotPerturbSchedule(t *testing.T) {
	run := func(prof *ProfTrial) []string {
		var final int
		rec := &recorder{}
		Run(counterProgram(3, 10, &final), Config{Seed: 99, Observers: []Observer{rec}, Prof: prof})
		return rec.lines
	}
	plain := run(nil)
	profiled := run(NewProfTrial("p", 99, profRing))
	if len(plain) != len(profiled) {
		t.Fatalf("event counts differ: %d vs %d", len(plain), len(profiled))
	}
	for i := range plain {
		if plain[i] != profiled[i] {
			t.Fatalf("event %d differs:\n  plain:    %s\n  profiled: %s", i, plain[i], profiled[i])
		}
	}
}

// TestProfProbesRecordExactTotals drives the recording probes directly with
// fixed latencies and checks the exact totals and ring contents they leave:
// grant sums wait and service per kind (clamping a negative wait to 0),
// round counts rounds, empty rounds and the enabled-set size (capped into
// the top bucket), and mark stamps the phases in order.
func TestProfProbesRecordExactTotals(t *testing.T) {
	tr := NewProfTrial("exact", 3, 8)
	tr.mark(PhaseLoopEnter)
	for i := 0; i < 10; i++ {
		tr.grant(OpWrite, 1, i+1, int64(i*100), 50, 150)
		tr.round(2, 1)
	}
	tr.round(3, 0) // one empty round
	tr.round(100, 1)
	tr.Forced++
	tr.grant(OpLock, 0, 11, 1000, -5, 7)
	tr.mark(PhaseLoopExit)
	tr.mark(PhaseDone)

	if tr.Count[OpWrite] != 10 || tr.WaitSum[OpWrite] != 500 || tr.SvcSum[OpWrite] != 1500 {
		t.Fatalf("write count/wait/svc = %d/%d/%d, want 10/500/1500",
			tr.Count[OpWrite], tr.WaitSum[OpWrite], tr.SvcSum[OpWrite])
	}
	if tr.Count[OpLock] != 1 || tr.WaitSum[OpLock] != 0 || tr.SvcSum[OpLock] != 7 {
		t.Fatalf("lock count/wait/svc = %d/%d/%d, want 1/0/7 (negative wait clamped)",
			tr.Count[OpLock], tr.WaitSum[OpLock], tr.SvcSum[OpLock])
	}
	for k := range tr.Count {
		if k != int(OpWrite) && k != int(OpLock) && (tr.Count[k] != 0 || tr.WaitSum[k] != 0 || tr.SvcSum[k] != 0) {
			t.Fatalf("kind %v has totals %d/%d/%d, want none", OpKind(k), tr.Count[k], tr.WaitSum[k], tr.SvcSum[k])
		}
	}
	if tr.Rounds != 12 || tr.Empty != 1 || tr.Forced != 1 {
		t.Fatalf("Rounds/Empty/Forced = %d/%d/%d, want 12/1/1", tr.Rounds, tr.Empty, tr.Forced)
	}
	want := [enabledCap + 1]int64{}
	want[2], want[3], want[enabledCap] = 10, 1, 1
	if tr.Enabled != want {
		t.Fatalf("Enabled = %v, want %v", tr.Enabled, want)
	}
	if tr.Spans() != 11 || tr.Dropped() != 3 {
		t.Fatalf("Spans/Dropped = %d/%d, want 11/3", tr.Spans(), tr.Dropped())
	}
	// Spans 9..11 overwrote slots 0..2 of the 8-slot ring.
	ring := tr.Ring()
	if sp := ring[2]; sp != (Span{StartNs: 1000, WaitNs: 0, DurNs: 7, Thread: 0, Kind: int32(OpLock), Step: 11}) {
		t.Fatalf("ring[2] = %+v, want the lock grant", sp)
	}
	if sp := ring[3]; sp != (Span{StartNs: 300, WaitNs: 50, DurNs: 150, Thread: 1, Kind: int32(OpWrite), Step: 4}) {
		t.Fatalf("ring[3] = %+v, want the fourth write grant", sp)
	}
	if !(tr.Phase[PhaseLoopEnter] <= tr.Phase[PhaseLoopExit] &&
		tr.Phase[PhaseLoopExit] <= tr.Phase[PhaseDone] && tr.Phase[PhaseDone] > 0) {
		t.Fatalf("phase marks not monotonic: %v", tr.Phase)
	}

	tr.Reset("again", 4)
	if tr.Spans() != 0 || tr.ProfCounts != (ProfCounts{}) || tr.Phase != [NumPhases]int64{} || tr.Name != "again" {
		t.Fatalf("Reset left state behind: spans %d, counts %+v, phase %v", tr.Spans(), tr.ProfCounts, tr.Phase)
	}
}
