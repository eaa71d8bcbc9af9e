// Package progen generates random — but fully deterministic — model
// programs from a seed. It exists to test the testing framework itself:
// metamorphic properties that must hold on *every* program (trace
// determinism, detector containment, mutual exclusion under every policy,
// absence of goroutine leaks) are checked over hundreds of generated
// programs, a far harsher regimen than the hand-written benchmarks.
//
// A generated program is a pure data structure (per-thread op scripts), so
// the same seed always denotes the same program regardless of how it is
// later scheduled.
package progen

import (
	"fmt"

	"racefuzzer/internal/event"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
)

// Config bounds the generated program's shape.
type Config struct {
	// Threads is the number of worker threads (default 3, min 2).
	Threads int
	// Vars is the number of shared variables (default 4).
	Vars int
	// Locks is the number of locks (default 2).
	Locks int
	// OpsPerThread is each worker's script length (default 12).
	OpsPerThread int
	// MaxLockDepth bounds lock nesting (default 2). Nested acquisition in
	// random order means generated programs CAN deadlock — callers that need
	// deadlock-free programs set MaxLockDepth to 1 or OrderedLocks to true.
	MaxLockDepth int
	// OrderedLocks forces each thread to acquire locks in ascending ID order,
	// which makes deadlock impossible.
	OrderedLocks bool
}

func (c Config) withDefaults() Config {
	if c.Threads < 2 {
		c.Threads = 3
	}
	if c.Vars <= 0 {
		c.Vars = 4
	}
	if c.Locks <= 0 {
		c.Locks = 2
	}
	if c.OpsPerThread <= 0 {
		c.OpsPerThread = 12
	}
	if c.MaxLockDepth <= 0 {
		c.MaxLockDepth = 2
	}
	return c
}

// opKind is a script instruction.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opNop
	opLock
	opUnlock
	opCount // counter increment under the dedicated counter lock
)

// scriptOp is one instruction of a thread script.
type scriptOp struct {
	kind opKind
	arg  int // var index or lock index
}

// Program is a generated program: scripts plus metadata for property checks.
type Program struct {
	Cfg     Config
	Seed    int64
	scripts [][]scriptOp
	// sites[t][i] labels scripts[t][i]; lockNames and threadNames name the
	// locks and workers. Generate builds every string once, so running the
	// program formats nothing and interns each label once per Program.
	sites       [][]event.Site
	lockNames   []string
	threadNames []string

	// CounterIncrements is the total number of opCount instructions: after
	// any complete (non-deadlocked, non-aborted) execution, the shared
	// counter must equal this — the mutual-exclusion oracle.
	CounterIncrements int
}

// Generate builds a random program from seed under cfg.
func Generate(seed int64, cfg Config) *Program {
	cfg = cfg.withDefaults()
	r := rng.New(seed ^ 0x70726f67656e) // decoupled from scheduling streams
	p := &Program{Cfg: cfg, Seed: seed}
	for t := 0; t < cfg.Threads; t++ {
		var script []scriptOp
		var held []int // lock stack
		for len(script) < cfg.OpsPerThread {
			switch r.Intn(10) {
			case 0, 1, 2: // read
				script = append(script, scriptOp{opRead, r.Intn(cfg.Vars)})
			case 3, 4: // write
				script = append(script, scriptOp{opWrite, r.Intn(cfg.Vars)})
			case 5: // nop
				script = append(script, scriptOp{opNop, 0})
			case 6, 7: // lock or unlock
				if len(held) > 0 && r.Bool() {
					top := held[len(held)-1]
					held = held[:len(held)-1]
					script = append(script, scriptOp{opUnlock, top})
					continue
				}
				if len(held) >= cfg.MaxLockDepth {
					continue
				}
				l := r.Intn(cfg.Locks)
				if cfg.OrderedLocks && len(held) > 0 && l <= held[len(held)-1] {
					continue
				}
				if contains(held, l) {
					continue // keep scripts reentrancy-free for clarity
				}
				held = append(held, l)
				script = append(script, scriptOp{opLock, l})
			case 8: // counter increment (the mutual-exclusion oracle)
				script = append(script, scriptOp{opCount, 0})
				p.CounterIncrements++
			case 9: // short locked critical section touching a var
				if len(held) < cfg.MaxLockDepth {
					l := r.Intn(cfg.Locks)
					if !contains(held, l) && (!cfg.OrderedLocks || len(held) == 0 || l > held[len(held)-1]) {
						script = append(script,
							scriptOp{opLock, l},
							scriptOp{opWrite, r.Intn(cfg.Vars)},
							scriptOp{opUnlock, l})
					}
				}
			}
		}
		// Unwind any locks still held (scripts are balanced by construction).
		for i := len(held) - 1; i >= 0; i-- {
			script = append(script, scriptOp{opUnlock, held[i]})
		}
		p.scripts = append(p.scripts, script)
	}
	kinds := [...]string{"read", "write", "nop", "lock", "unlock", "count"}
	for t, script := range p.scripts {
		sites := make([]event.Site, len(script))
		for i, op := range script {
			sites[i].Name = fmt.Sprintf("gen%d:t%d.%d.%s", p.Seed, t, i, kinds[op.kind])
		}
		p.sites = append(p.sites, sites)
		p.threadNames = append(p.threadNames, fmt.Sprintf("gen-%d", t))
	}
	for i := 0; i < cfg.Locks; i++ {
		p.lockNames = append(p.lockNames, fmt.Sprintf("l%d", i))
	}
	return p
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Body returns the program as a runnable main-thread body. FinalCounter
// receives the counter's value at termination (valid only for complete runs).
func (p *Program) Body(finalCounter *int) func(*sched.Thread) {
	cfg := p.Cfg
	return func(mt *sched.Thread) {
		s := mt.Scheduler()
		vars := make([]event.MemLoc, cfg.Vars)
		for i := range vars {
			vars[i] = s.NewLocIndexed("v", i, "")
		}
		locks := make([]event.LockID, cfg.Locks)
		for i := range locks {
			locks[i] = s.NewLock(p.lockNames[i])
		}
		counterLock := s.NewLock("counterLock")
		counterLoc := s.NewLoc("counter")
		counter := 0

		kids := make([]*sched.Thread, len(p.scripts))
		for ti := range p.scripts {
			ti := ti
			kids[ti] = mt.ForkAt(p.threadNames[ti], func(c *sched.Thread) {
				for pi, op := range p.scripts[ti] {
					// Interned as the op first runs, not in Generate:
					// statement IDs are numbered in first-execution order.
					stmt := p.sites[ti][pi].Stmt()
					switch op.kind {
					case opRead:
						c.MemRead(vars[op.arg], stmt)
					case opWrite:
						c.MemWrite(vars[op.arg], stmt)
					case opNop:
						c.Nop(stmt)
					case opLock:
						c.LockAcquire(locks[op.arg], stmt)
					case opUnlock:
						c.LockRelease(locks[op.arg], stmt)
					case opCount:
						c.LockAcquire(counterLock, stmt)
						c.MemRead(counterLoc, stmt)
						v := counter
						c.MemWrite(counterLoc, stmt)
						counter = v + 1
						c.LockRelease(counterLock, stmt)
					}
				}
			}, siteProgen196.Stmt())
		}
		for _, k := range kids {
			mt.JoinAt(k, siteProgen224.Stmt())
		}
		if finalCounter != nil {
			*finalCounter = counter
		}
	}
}
