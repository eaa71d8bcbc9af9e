package conc

import (
	"testing"

	"racefuzzer/internal/event"
	"racefuzzer/internal/sched"
)

func stmt(name string) event.Stmt { return event.StmtFor(name) }

func TestRWLockSharedReadersExclusiveWriter(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		violations := 0
		prog := func(mt *Thread) {
			rw := NewRWLock(mt, "rw")
			activeReaders := 0
			writerIn := false
			state := NewMutex(mt, "state") // guards the oracle counters
			maxConcurrentReaders := 0

			readers := ForkN(mt, "r", 3, func(c *Thread, i int) {
				for k := 0; k < 3; k++ {
					rw.RLock(c)
					state.Lock(c)
					activeReaders++
					if writerIn {
						violations++
					}
					if activeReaders > maxConcurrentReaders {
						maxConcurrentReaders = activeReaders
					}
					state.Unlock(c)
					c.Nop(stmt("r-work"))
					state.Lock(c)
					activeReaders--
					state.Unlock(c)
					rw.RUnlock(c)
				}
			})
			writers := ForkN(mt, "w", 2, func(c *Thread, i int) {
				for k := 0; k < 2; k++ {
					rw.Lock(c)
					state.Lock(c)
					if writerIn || activeReaders > 0 {
						violations++
					}
					writerIn = true
					state.Unlock(c)
					c.Nop(stmt("w-work"))
					state.Lock(c)
					writerIn = false
					state.Unlock(c)
					rw.Unlock(c)
				}
			})
			JoinAll(mt, readers)
			JoinAll(mt, writers)
		}
		res := sched.Run(prog, sched.Config{Seed: seed})
		if res.Deadlock != nil {
			t.Fatalf("seed %d: deadlock %v", seed, res.Deadlock)
		}
		if len(res.Exceptions) != 0 {
			t.Fatalf("seed %d: %v", seed, res.Exceptions)
		}
		if violations != 0 {
			t.Fatalf("seed %d: %d rwlock violations", seed, violations)
		}
	}
}
