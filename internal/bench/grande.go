package bench

import (
	"racefuzzer/internal/conc"
	"racefuzzer/internal/event"
)

// Models of the Java Grande Forum kernels (moldyn, montecarlo, raytracer)
// and ETH's sor. Each preserves the original's concurrency skeleton —
// barrier-phased data parallelism over partitioned arrays with the known
// races in unsynchronized shared accumulators — and carries a faithful
// (integer fixed-point) rendition of the original's computation, so the
// instrumented access patterns resemble the real kernels' rather than
// placeholder loops.

// fx is the fixed-point scale used by the kernels (values are ints scaled
// by fx, keeping the models deterministic across platforms).
const fx = 1024

// GrandeProbe captures a kernel's final state for behavioural tests: the
// partitioned, barrier-ordered state (positions, grids, pixels, results) is
// schedule-independent, while the racy accumulators (epot, vir, checksum)
// need not be — the observable meaning of "benign race".
type GrandeProbe struct {
	Pos, Vel, Grid, Pixels, Results []int
	Epot, Vir, Checksum, Sum        int
}

// Moldyn statement labels for the designed (benign) races.
var (
	MoldynEpotStmt = event.StmtFor("moldyn: epot += e (unsynchronized)")
	MoldynVirStmt  = event.StmtFor("moldyn: vir += v (unsynchronized)")
)

// Moldyn models the molecular-dynamics kernel: particles with positions and
// velocities, a Lennard-Jones-flavoured pairwise force phase, and a Verlet
// update phase, separated by cyclic barriers. Partitioned arrays make the
// compute race-free; the two real (benign) races are the unsynchronized
// accumulations into the global epot and vir sums — the two races the paper
// reports discovering in moldyn, missed by previous dynamic tools.
func Moldyn(nw, particles, steps int, probe ...*GrandeProbe) Program {
	return func(t *conc.Thread) {
		pos := conc.NewArray[int](t, "pos", particles)
		vel := conc.NewArray[int](t, "vel", particles)
		force := conc.NewArray[int](t, "force", particles)
		epot := conc.NewIntVar(t, "epot", 0)
		vir := conc.NewIntVar(t, "vir", 0)
		ekin := conc.NewIntVar(t, "ekin", 0)
		ekinLock := conc.NewMutex(t, "ekinLock")
		bar := conc.NewBarrier(t, "barrier", nw)

		// Initial lattice: evenly spaced positions, alternating velocities.
		for i := 0; i < particles; i++ {
			pos.SetAt(t, siteGrande54.Stmt(), i, (i+1)*fx)
			if i%2 == 0 {
				vel.SetAt(t, siteGrande56.Stmt(), i, fx/8)
			} else {
				vel.SetAt(t, siteGrande58.Stmt(), i, -fx/8)
			}
		}

		workers := conc.ForkN(t, "worker", nw, func(c *conc.Thread, id int) {
			lo := id * particles / nw
			hi := (id + 1) * particles / nw
			for step := 0; step < steps; step++ {
				// Force phase: Lennard-Jones-flavoured pairwise interaction.
				// Reads cross partitions; writes stay in the own partition.
				localE, localV := 0, 0
				for p := lo; p < hi; p++ {
					xp := pos.GetAt(c, siteGrande70.Stmt(), p)
					f := 0
					for q := 0; q < particles; q++ {
						if q == p {
							continue
						}
						d := xp - pos.GetAt(c, siteGrande76.Stmt(), q)
						if d < 0 {
							d = -d
						}
						if d == 0 {
							d = 1
						}
						// Repulsive ~1/d² and attractive ~1/d terms, fixed point.
						rep := (fx * fx) / (d * d / fx)
						att := (fx * fx) / d
						f += rep - att/2
						localE += rep/2 + att/4
						localV += rep / 4
					}
					force.SetAt(c, siteGrande90.Stmt(), p, f)
				}
				// The two known races: global reductions without a lock
				// (read-modify-write on a shared accumulator).
				epot.AddAt(c, MoldynEpotStmt, localE)
				vir.AddAt(c, MoldynVirStmt, localV)

				bar.Await(c)

				// Update phase: velocity-Verlet-style integration on the own
				// partition, plus a properly locked kinetic-energy reduction.
				localK := 0
				for p := lo; p < hi; p++ {
					v := vel.GetAt(c, siteGrande103.Stmt(), p) + force.GetAt(c, siteGrande103.Stmt(), p)/(fx*4)
					// Reflective walls keep the system bounded.
					x := pos.GetAt(c, siteGrande105.Stmt(), p) + v/4
					if x < 0 {
						x, v = -x, -v
					}
					if x > (particles+1)*fx {
						x, v = 2*(particles+1)*fx-x, -v
					}
					vel.SetAt(c, siteGrande112.Stmt(), p, v)
					pos.SetAt(c, siteGrande113.Stmt(), p, x)
					localK += v * v / fx
				}
				ekinLock.LockAt(c, siteGrande116.Stmt())
				ekin.AddAt(c, siteGrande117.Stmt(), localK)
				ekinLock.UnlockAt(c, siteGrande118.Stmt())

				bar.Await(c)
			}
		})
		conc.JoinAll(t, workers)
		if len(probe) > 0 {
			pr := probe[0]
			for i := 0; i < particles; i++ {
				pr.Pos = append(pr.Pos, pos.Peek(i))
				pr.Vel = append(pr.Vel, vel.Peek(i))
			}
			pr.Epot = epot.Peek()
			pr.Vir = vir.Peek()
		}
	}
}

// RaytracerChecksumRead/Write label the kernel's known checksum race.
var (
	RaytracerChecksumRead  = event.StmtFor("raytracer: read checksum")
	RaytracerChecksumWrite = event.StmtFor("raytracer: write checksum")
)

// sphere is one scene object of the raytracer model (fixed-point units).
type sphere struct {
	cx, cy, cz int
	r2         int // radius²
	shade      int
}

// Raytracer models the ray-tracing kernel: an actual (integer fixed-point)
// ray–sphere intersection per pixel over a small scene, rows distributed
// cyclically over the workers (the JGF distribution), pixels written to
// disjoint slots — and the kernel's famous real race: the global checksum
// accumulated without synchronization, giving two racing statement pairs
// (read–write and write–write).
func Raytracer(nw, rows, cols int, probe ...*GrandeProbe) Program {
	scene := []sphere{
		{cx: 0, cy: 0, cz: 6 * fx, r2: fx * fx / 3, shade: 200},
		{cx: fx / 2, cy: fx / 2, cz: 9 * fx, r2: fx * fx / 8, shade: 120},
		{cx: -fx / 2, cy: -fx / 4, cz: 12 * fx, r2: fx * fx / 2, shade: 80},
	}
	return func(t *conc.Thread) {
		pixels := conc.NewArray[int](t, "pixels", rows*cols)
		checksum := conc.NewVar(t, "checksum", 0)

		workers := conc.ForkN(t, "renderer", nw, func(c *conc.Thread, id int) {
			for r := id; r < rows; r += nw { // interleaved row ownership
				rowSum := 0
				for col := 0; col < cols; col++ {
					// Primary ray through the pixel (orthographic-ish).
					ox := (2*col - cols) * fx / cols
					oy := (2*r - rows) * fx / rows
					v := 16 // background
					// Nearest-hit search over the scene.
					best := 1 << 30
					for _, s := range scene {
						// Project ray origin offset against sphere center;
						// hit if the squared lateral distance is inside r².
						dx := ox - s.cx
						dy := oy - s.cy
						lat := dx*dx + dy*dy
						if lat < s.r2 && s.cz < best {
							best = s.cz
							// Cheap Lambert-ish shading by depth of hit.
							depth := s.r2 - lat
							v = s.shade + depth/(s.r2/64+1)
						}
					}
					v %= 256
					pixels.SetAt(c, siteGrande189.Stmt(), r*cols+col, v)
					rowSum += v
				}
				// JGF raytracer: checksum += rowSum, unsynchronized.
				cur := checksum.GetAt(c, RaytracerChecksumRead)
				checksum.SetAt(c, RaytracerChecksumWrite, cur+rowSum)
			}
		})
		conc.JoinAll(t, workers)
		if len(probe) > 0 {
			pr := probe[0]
			for i := 0; i < rows*cols; i++ {
				pr.Pixels = append(pr.Pixels, pixels.Peek(i))
			}
			pr.Checksum = checksum.Peek()
		}
	}
}

// mcNoise is a tiny deterministic hash so every Monte-Carlo task computes
// the same path regardless of scheduling (no shared RNG stream).
func mcNoise(task, step int) int {
	x := uint64(task)*0x9e3779b97f4a7c15 + uint64(step)*0xbf58476d1ce4e5b9
	x ^= x >> 29
	x *= 0x94d049bb133111eb
	x ^= x >> 32
	return int(x % 21)
}

// Montecarlo models the Monte-Carlo kernel: each task simulates a
// random-walk price path (deterministic per task), publishes the result in
// its own slot, and bumps a tasks-done counter without synchronization —
// the single real, benign race. The final reduction is properly locked.
func Montecarlo(nw, runs int, probe ...*GrandeProbe) Program {
	doneStmt := event.StmtFor("montecarlo: tasksDone++ (unsynchronized)")
	pathStmt := event.StmtFor("montecarlo: path step")
	return func(t *conc.Thread) {
		results := conc.NewArray[int](t, "results", runs)
		tasksDone := conc.NewIntVar(t, "tasksDone", 0)
		sum := conc.NewIntVar(t, "sum", 0)
		sumLock := conc.NewMutex(t, "sumLock")

		workers := conc.ForkN(t, "sim", nw, func(c *conc.Thread, id int) {
			for r := id; r < runs; r += nw {
				// Geometric-random-walk flavoured path in fixed point.
				price := 100 * fx
				for s := 0; s < 6; s++ {
					drift := price / 256
					shock := (mcNoise(r, s) - 10) * fx / 16
					price += drift + shock
					if price < fx {
						price = fx
					}
					c.Nop(pathStmt)
				}
				results.SetAt(c, siteGrande244.Stmt(), r, price) // per-task slot: no race
				tasksDone.AddAt(c, doneStmt, 1)                  // the known benign race
			}
			// Properly synchronized reduction of the own tasks.
			local := 0
			for r := id; r < runs; r += nw {
				local += results.GetAt(c, siteGrande250.Stmt(), r)
			}
			sumLock.LockAt(c, siteGrande252.Stmt())
			sum.AddAt(c, siteGrande253.Stmt(), local)
			sumLock.UnlockAt(c, siteGrande254.Stmt())
		})
		conc.JoinAll(t, workers)
		if len(probe) > 0 {
			pr := probe[0]
			for i := 0; i < runs; i++ {
				pr.Results = append(pr.Results, results.Peek(i))
			}
			pr.Sum = sum.Peek()
		}
	}
}

// Sor models the successive over-relaxation benchmark: a red-black
// Gauss-Seidel sweep with barrier-separated half-iterations and an
// over-relaxation factor ω. Neighbour reads cross partition boundaries, so
// the hybrid detector (which ignores the barrier's lock operations) reports
// potential races — every one of them false: the barrier orders the phases,
// and RaceFuzzer confirms none is real. This is Table 1's sor row:
// 8 potential, 0 real.
func Sor(nw, n, iters int, probe ...*GrandeProbe) Program {
	const omega = 3 * fx / 2 // ω = 1.5 in fixed point
	return func(t *conc.Thread) {
		grid := conc.NewArray[int](t, "G", n*n)
		bar := conc.NewBarrier(t, "barrier", nw)
		for i := 0; i < n*n; i++ {
			grid.SetAt(t, siteGrande280.Stmt(), i, (i%7)*fx/4)
		}
		workers := conc.ForkN(t, "sweep", nw, func(c *conc.Thread, id int) {
			loRow := 1 + id*(n-2)/nw
			hiRow := 1 + (id+1)*(n-2)/nw
			for it := 0; it < iters; it++ {
				for color := 0; color < 2; color++ {
					for r := loRow; r < hiRow; r++ {
						for col := 1; col < n-1; col++ {
							if (r+col)%2 != color {
								continue
							}
							up := grid.GetAt(c, siteGrande292.Stmt(), (r-1)*n+col) // may cross partitions
							down := grid.GetAt(c, siteGrande293.Stmt(), (r+1)*n+col)
							left := grid.GetAt(c, siteGrande294.Stmt(), r*n+col-1)
							right := grid.GetAt(c, siteGrande295.Stmt(), r*n+col+1)
							old := grid.GetAt(c, siteGrande296.Stmt(), r*n+col)
							relaxed := old + omega*((up+down+left+right)/4-old)/fx
							grid.SetAt(c, siteGrande298.Stmt(), r*n+col, relaxed)
						}
					}
					bar.Await(c)
				}
			}
		})
		conc.JoinAll(t, workers)
		if len(probe) > 0 {
			pr := probe[0]
			for i := 0; i < n*n; i++ {
				pr.Grid = append(pr.Grid, grid.Peek(i))
			}
		}
	}
}

func init() {
	register(Benchmark{
		Name:        "moldyn",
		Description: "Java Grande molecular dynamics: barrier phases; 2 real benign races on epot/vir reductions",
		Paper: PaperRow{SLOC: 1352, NormalSec: 2.07, HybridSec: 3600, RaceFuzzerSec: 42.37,
			HybridRaces: 59, RealRaces: 2, KnownRaces: 0, ExceptionPairs: 0, SimpleExceptions: 0, Probability: 1.0},
		Expect:       Expect{MinReal: 2, MaxReal: -1, MinPotential: 3, MinExceptionPairs: 0, MaxExceptionPairs: 0, MinProbability: 0.6},
		New:          func() Program { return Moldyn(3, 9, 2) },
		Phase1Trials: 4,
	})
	register(Benchmark{
		Name:        "raytracer",
		Description: "Java Grande raytracer: disjoint rows; 2 real races (checksum read–write, write–write)",
		Paper: PaperRow{SLOC: 1924, NormalSec: 3.25, HybridSec: 3600, RaceFuzzerSec: 3.81,
			HybridRaces: 2, RealRaces: 2, KnownRaces: 2, ExceptionPairs: 0, SimpleExceptions: 0, Probability: 1.0},
		Expect:       Expect{MinReal: 2, MaxReal: 2, MinPotential: 2, MinExceptionPairs: 0, MaxExceptionPairs: 0, MinProbability: 0.6},
		New:          func() Program { return Raytracer(3, 6, 4) },
		Phase1Trials: 4,
	})
	register(Benchmark{
		Name:        "montecarlo",
		Description: "Java Grande Monte Carlo: per-task result slots; 1 real benign race on tasksDone",
		Paper: PaperRow{SLOC: 3619, NormalSec: 3.48, HybridSec: 3600, RaceFuzzerSec: 6.44,
			HybridRaces: 5, RealRaces: 1, KnownRaces: 1, ExceptionPairs: 0, SimpleExceptions: 0, Probability: 1.0},
		Expect:       Expect{MinReal: 1, MaxReal: 1, MinPotential: 1, MinExceptionPairs: 0, MaxExceptionPairs: 0, MinProbability: 0.6},
		New:          func() Program { return Montecarlo(3, 9) },
		Phase1Trials: 4,
	})
	register(Benchmark{
		Name:        "sor",
		Description: "ETH successive over-relaxation: red-black barrier phases; potential races, none real",
		Paper: PaperRow{SLOC: 17689, NormalSec: 0.16, HybridSec: 0.35, RaceFuzzerSec: 0.23,
			HybridRaces: 8, RealRaces: 0, KnownRaces: 0, ExceptionPairs: 0, SimpleExceptions: 0, Probability: -1},
		Expect:       Expect{MinReal: 0, MaxReal: 0, MinPotential: 1, MinExceptionPairs: 0, MaxExceptionPairs: 0, MinProbability: 0},
		New:          func() Program { return Sor(3, 8, 2) },
		Phase1Trials: 4,
	})
}
