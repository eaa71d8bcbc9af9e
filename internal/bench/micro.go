package bench

import (
	"racefuzzer/internal/conc"
	"racefuzzer/internal/event"
)

// Scheduler micro-workloads for the performance harness (internal/benchsnap
// and the grant-loop benchmarks in internal/sched). Unlike the registered
// Table-1 models these are not race benchmarks — they are deliberately
// race-free programs shaped to stress specific scheduler paths:
//
//	GrantSerial  one runnable thread; pure grant-turnaround latency
//	GrantPing    two threads alternating over a mutex; 2-wide decision loop
//	GrantFanout  N always-runnable workers; wide enabled-set decisions
//
// They are intentionally NOT in the registry: cmd/benchtable measures race
// pipelines, these measure the substrate under them.

var (
	microStmtWork = event.StmtFor("micro:work")
	microStmtHit  = event.StmtFor("micro:hit")
)

// GrantSerial is the minimal grant loop: the main thread forks one worker
// that executes ops untracked statements. At any instant at most one thread
// is runnable, so every scheduler decision round sees a singleton enabled
// set — the measured cost is park/grant channel turnaround itself.
func GrantSerial(ops int) Program {
	return func(t *conc.Thread) {
		w := t.ForkAt("serial", func(c *conc.Thread) {
			for i := 0; i < ops; i++ {
				c.Nop(microStmtWork)
			}
		}, siteMicro31.Stmt())
		t.JoinAt(w, siteMicro36.Stmt())
	}
}

// GrantPing makes two workers alternate rounds of lock/touch/unlock on one
// mutex and one shared counter: the classic ping-pong. Both threads stay
// alive for the whole run, so the decision loop continually picks between
// two enabled threads and the lock hand-off exercises blocked→enabled
// transitions.
func GrantPing(rounds int) Program {
	return func(t *conc.Thread) {
		n := conc.NewIntVar(t, "n", 0)
		l := conc.NewMutex(t, "ping")
		body := func(c *conc.Thread) {
			for i := 0; i < rounds; i++ {
				l.LockAt(c, siteMicro51.Stmt())
				n.AddAt(c, microStmtHit, 1)
				l.UnlockAt(c, siteMicro53.Stmt())
			}
		}
		a := t.ForkAt("ping0", body, siteMicro56.Stmt())
		b := t.ForkAt("ping1", body, siteMicro57.Stmt())
		t.JoinAt(a, siteMicro58.Stmt())
		t.JoinAt(b, siteMicro59.Stmt())
	}
}

// GrantFanout forks `threads` workers that each perform `ops` rounds of
// private work plus a brief critical section on a shared lock. With every
// worker runnable almost all the time, the decision loop's enabled set
// stays ~threads wide — the workload for measuring how grant latency
// scales with enabled-set size.
func GrantFanout(threads, ops int) Program {
	return func(t *conc.Thread) {
		sum := conc.NewIntVar(t, "sum", 0)
		l := conc.NewMutex(t, "fan")
		kids := conc.ForkN(t, "fan", threads, func(c *conc.Thread, i int) {
			for j := 0; j < ops; j++ {
				c.Nop(microStmtWork)
				l.LockAt(c, siteMicro75.Stmt())
				sum.AddAt(c, microStmtHit, 1)
				l.UnlockAt(c, siteMicro77.Stmt())
			}
		})
		conc.JoinAll(t, kids)
	}
}
