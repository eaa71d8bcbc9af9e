package bench

import (
	"errors"

	"racefuzzer/internal/collections"
	"racefuzzer/internal/conc"
	"racefuzzer/internal/event"
)

// Models of the application benchmarks: cache4j, hedc, weblech, jspider and
// jigsaw. Each preserves the synchronization skeleton in which the paper's
// bug (or false alarms) live.

// Exceptions thrown by the application models, named after their Java
// counterparts (core.exceptionKind truncates at ':').
var (
	ErrInterrupted = errors.New("InterruptedException")
	ErrNullPointer = errors.New("NullPointerException")
	ErrOutOfBounds = errors.New("ArrayIndexOutOfBoundsException")
)

// Cache4j statement labels for the _sleep race (§5.3's first bug).
var (
	Cache4jSleepSetTrue  = event.StmtFor("cache4j: _sleep = true")
	Cache4jSleepSetFalse = event.StmtFor("cache4j: _sleep = false (finally)")
	Cache4jSleepRead     = event.StmtFor("cache4j: if (_sleep)")
)

// Cache4jSleepPair is the harmful racing pair: the user thread's _sleep read
// against the cleaner's finally-block reset.
var Cache4jSleepPair = event.MakeStmtPair(Cache4jSleepRead, Cache4jSleepSetFalse)

// Cache4j models the cache4j bug of §5.3: the CacheCleaner advertises that
// it is sleeping via an unsynchronized _sleep flag; the user thread, under
// the cache lock, interrupts the cleaner whenever it observes _sleep. The
// race: the user can read a stale "sleeping" after the cleaner already left
// its try/catch, so the interrupt lands in cleaning code with no handler —
// an uncaught InterruptedException. The cache's get/put paths are properly
// locked; a stats counter adds one benign real race.
func Cache4j(nUsers, opsPerUser int) Program {
	hitsStmt := event.StmtFor("cache4j: hits++ (unsynchronized stats)")
	return func(t *conc.Thread) {
		const slots = 8
		cacheLock := conc.NewMutex(t, "cacheLock")
		cache := collections.NewHashMap(t, "cache.map")
		hits := conc.NewIntVar(t, "hits", 0)
		sleepFlag := conc.NewVar(t, "_sleep", false)
		this := conc.NewMutex(t, "cleaner.this") // the synchronized(this) monitor

		cleaner := t.ForkAt("CacheCleaner", func(c *conc.Thread) {
			sleepFlag.SetAt(c, Cache4jSleepSetTrue, true) // _sleep = true
			// try { sleep(_cleanInterval) } catch (Throwable) {} — an
			// interrupt delivered during the sleep is caught and swallowed.
			for i := 0; i < 3; i++ {
				c.Nop(cache4jSleeping.Stmt())
				if c.IsInterruptedAt(siteApps57.Stmt()) {
					c.ClearInterruptAt(siteApps58.Stmt()) // the catch(Throwable) block
					break
				}
			}
			sleepFlag.SetAt(c, Cache4jSleepSetFalse, false) // finally { _sleep = false }
			// clean(): evict even-keyed entries — interruptible work with NO
			// try/catch around it.
			for s := 0; s < slots; s += 2 {
				cacheLock.LockAt(c, siteApps66.Stmt())
				cache.Remove(c, s)
				cacheLock.UnlockAt(c, siteApps68.Stmt())
				if c.IsInterruptedAt(siteApps69.Stmt()) { // interrupt landed here: uncaught
					c.Throw(ErrInterrupted)
				}
			}
		}, siteApps51.Stmt())

		users := conc.ForkN(t, "user", nUsers, func(c *conc.Thread, id int) {
			for op := 0; op < opsPerUser; op++ {
				k := (id*opsPerUser + op) % slots
				cacheLock.LockAt(c, siteApps78.Stmt())
				if _, ok := cache.Get(c, k); !ok {
					cache.Put(c, k, k*10)
				}
				cacheLock.UnlockAt(c, siteApps82.Stmt())
				hits.AddAt(c, hitsStmt, 1) // benign real race
			}
			// Shutdown path: synchronized(this) { if (_sleep) interrupt(); }
			this.LockAt(c, siteApps86.Stmt())
			if sleepFlag.GetAt(c, Cache4jSleepRead) {
				c.InterruptAt(cleaner, siteApps88.Stmt())
			}
			this.UnlockAt(c, siteApps90.Stmt())
		})
		conc.JoinAll(t, users)
		t.JoinAt(cleaner, siteApps93.Stmt())
	}
}

// Hedc models the ETH web-crawler kernel: a pool of workers pulls search
// tasks from a locked queue; a canceller aborts a slow backend by nulling
// its connection *before* publishing the cancelled flag — the real race. A
// worker that still sees "not cancelled" dereferences the nulled connection:
// NullPointerException. Task bookkeeping is properly locked, and an
// initialized-flag idiom produces classic hybrid false alarms.
func Hedc(nWorkers, nTasks int) Program {
	connRead := event.StmtFor("hedc: conn = task.connection")
	connNull := event.StmtFor("hedc: task.connection = null")
	return func(t *conc.Thread) {
		queueLock := conc.NewMutex(t, "queueLock")
		nextTask := conc.NewIntVar(t, "nextTask", 0)
		connection := conc.NewVar(t, "connection", 1) // 0 = nulled
		cancelled := conc.NewVar(t, "cancelled", false)
		cancelLock := conc.NewMutex(t, "cancelLock")
		// initialized-flag idiom: config written once, then flag set under a
		// lock; readers check the flag under the lock, then read the config
		// unsynchronized — safe, but a hybrid false alarm (Figure-1 pattern).
		config := conc.NewVar(t, "config", 0)
		configReady := conc.NewVar(t, "configReady", false)
		initLock := conc.NewMutex(t, "initLock")

		// The loader runs concurrently with the workers (so the hybrid
		// detector sees no fork edge ordering the config write before the
		// workers' reads — the false alarm the flag idiom provokes).
		loader := t.ForkAt("config-loader", func(c *conc.Thread) {
			config.SetAt(c, siteApps123.Stmt(), 42)
			initLock.LockAt(c, siteApps124.Stmt())
			configReady.SetAt(c, siteApps125.Stmt(), true)
			initLock.UnlockAt(c, siteApps126.Stmt())
		}, siteApps122.Stmt())

		workers := conc.ForkN(t, "worker", nWorkers, func(c *conc.Thread, id int) {
			for {
				queueLock.LockAt(c, siteApps131.Stmt())
				task := nextTask.GetAt(c, siteApps132.Stmt())
				if task >= nTasks {
					queueLock.UnlockAt(c, siteApps134.Stmt())
					return
				}
				nextTask.SetAt(c, siteApps137.Stmt(), task+1)
				queueLock.UnlockAt(c, siteApps138.Stmt())

				initLock.LockAt(c, siteApps140.Stmt())
				ready := configReady.GetAt(c, siteApps141.Stmt())
				initLock.UnlockAt(c, siteApps142.Stmt())
				if ready {
					_ = config.GetAt(c, siteApps144.Stmt()) // false-alarm side of the idiom
				}

				cancelLock.LockAt(c, siteApps147.Stmt())
				isCancelled := cancelled.GetAt(c, siteApps148.Stmt())
				cancelLock.UnlockAt(c, siteApps149.Stmt())
				if !isCancelled {
					conn := connection.GetAt(c, connRead) // races with the canceller
					if conn == 0 {
						c.Throw(ErrNullPointer)
					}
					// Fetching and parsing the page dominates the task: the
					// cancellation window is a tiny fraction of the run, so
					// undirected testing almost never lands in it.
					for f := 0; f < 8; f++ {
						c.Nop(hedcFetchPage.Stmt())
					}
				}
			}
		})
		canceller := t.ForkAt("canceller", func(c *conc.Thread) {
			// The MetaSearchRequest timeout: a realistic delay before the
			// cancellation fires, so workers are usually mid-crawl.
			for i := 0; i < 10; i++ {
				c.Nop(hedcWaitForTimeout.Stmt())
			}
			cancelLock.LockAt(c, siteApps170.Stmt())
			connection.SetAt(c, connNull, 0) // bug: nulled while a worker that
			// already passed its cancelled-check may still dereference it —
			// the check and the use are not atomic.
			cancelled.SetAt(c, siteApps174.Stmt(), true)
			cancelLock.UnlockAt(c, siteApps175.Stmt())
		}, siteApps164.Stmt())
		conc.JoinAll(t, workers)
		t.JoinAt(canceller, siteApps178.Stmt())
		t.JoinAt(loader, siteApps179.Stmt())
	}
}

// Weblech models the website-mirroring tool: workers drain a download queue
// with a check-then-act bug — the queue size is read without the lock, the
// pop happens under it. Two workers can both see "one element left"; the
// second pop underflows: ArrayIndexOutOfBoundsException. A downloadsDone
// counter adds a benign real race.
func Weblech(nWorkers, nURLs int) Program {
	sizeRead := event.StmtFor("weblech: if (queueSize > 0) — unsynchronized")
	doneStmt := event.StmtFor("weblech: downloadsDone++ (unsynchronized)")
	return func(t *conc.Thread) {
		queueLock := conc.NewMutex(t, "queueLock")
		queue := conc.NewArray[int](t, "queue", nURLs)
		queueSize := conc.NewIntVar(t, "queueSize", 0)
		downloadsDone := conc.NewIntVar(t, "downloadsDone", 0)

		for i := 0; i < nURLs; i++ {
			queue.SetAt(t, siteApps198.Stmt(), i, 1000+i)
			queueSize.SetAt(t, siteApps199.Stmt(), i+1)
		}
		workers := conc.ForkN(t, "spider", nWorkers, func(c *conc.Thread, id int) {
			for {
				// Bug: size checked without the lock …
				if queueSize.GetAt(c, sizeRead) <= 0 {
					return
				}
				// … pop under the lock, trusting the stale check.
				queueLock.LockAt(c, siteApps208.Stmt())
				n := queueSize.GetAt(c, siteApps209.Stmt())
				if n-1 < 0 {
					queueLock.UnlockAt(c, siteApps211.Stmt())
					c.Throw(ErrOutOfBounds)
				}
				url := queue.GetAt(c, siteApps214.Stmt(), n-1)
				queueSize.SetAt(c, siteApps215.Stmt(), n-1)
				queueLock.UnlockAt(c, siteApps216.Stmt())
				_ = url
				// The download itself dominates each iteration, keeping the
				// stale-size window narrow under undirected scheduling.
				for d := 0; d < 6; d++ {
					c.Nop(weblechDownloadURL.Stmt())
				}
				downloadsDone.AddAt(c, doneStmt, 1)
			}
		})
		conc.JoinAll(t, workers)
	}
}

// Jspider models the configurable web-spider engine: heavily plugin/config
// driven, with all mutable state either lock-protected or published through
// initialized-flag idioms before the workers consume it. The hybrid
// detector reports the flag-guarded accesses as potential races (they have
// disjoint locksets and no fork/join edge), but none is real — Table 1's
// jspider row: 29 potential, 0 real.
func Jspider(nWorkers, nTasks int) Program {
	return func(t *conc.Thread) {
		queueLock := conc.NewMutex(t, "queueLock")
		nextTask := conc.NewIntVar(t, "nextTask", 0)
		visited := conc.NewIntVar(t, "visited", 0)

		// Three independent plugin configurations, each published through
		// its own flag-under-lock (three Figure-1-style false-alarm sites).
		type plugin struct {
			cfg       *conc.Var[int]
			ready     *conc.Var[bool]
			lock      *conc.Mutex
			writeStmt event.Stmt
			readStmt  event.Stmt
		}
		names := []string{"fetcher", "parser", "throttle"}
		plugins := make([]plugin, len(names))
		for i, n := range names {
			plugins[i] = plugin{
				cfg:       conc.NewVar(t, n+".cfg", 0),
				ready:     conc.NewVar(t, n+".ready", false),
				lock:      conc.NewMutex(t, n+".lock"),
				writeStmt: event.StmtFor("jspider: load " + n + ".cfg"),
				readStmt:  event.StmtFor("jspider: use " + n + ".cfg"),
			}
		}
		loader := t.ForkAt("config-loader", func(c *conc.Thread) {
			for i := range plugins {
				plugins[i].cfg.SetAt(c, plugins[i].writeStmt, 100+i) // unsynchronized write …
				plugins[i].lock.LockAt(c, siteApps265.Stmt())
				plugins[i].ready.SetAt(c, siteApps266.Stmt(), true) // … published under the lock
				plugins[i].lock.UnlockAt(c, siteApps267.Stmt())
			}
		}, siteApps262.Stmt())

		workers := conc.ForkN(t, "spider", nWorkers, func(c *conc.Thread, id int) {
			for {
				queueLock.LockAt(c, siteApps273.Stmt())
				task := nextTask.GetAt(c, siteApps274.Stmt())
				if task >= nTasks {
					queueLock.UnlockAt(c, siteApps276.Stmt())
					return
				}
				nextTask.SetAt(c, siteApps279.Stmt(), task+1)
				visited.AddAt(c, siteApps280.Stmt(), 1) // locked: no race
				queueLock.UnlockAt(c, siteApps281.Stmt())

				for i := range plugins {
					plugins[i].lock.LockAt(c, siteApps284.Stmt())
					ready := plugins[i].ready.GetAt(c, siteApps285.Stmt())
					plugins[i].lock.UnlockAt(c, siteApps286.Stmt())
					if ready {
						_ = plugins[i].cfg.GetAt(c, plugins[i].readStmt) // unsynchronized read: false alarm
					}
				}
				c.Nop(jspiderProcessTask.Stmt())
			}
		})
		conc.JoinAll(t, workers)
		t.JoinAt(loader, siteApps295.Stmt())
	}
}

// jigsawRequest is one entry of the model server's accept queue: an HTTP
// request line as the real Jigsaw would read it off a connection.
var jigsawRequests = []string{
	"GET /index.html",
	"GET /logo.png",
	"PUT /index.html",
	"GET /docs/manual.html",
	"GET /missing.html",
	"PUT /docs/manual.html",
	"GET /index.html",
	"GET /logo.png",
	"GET /style.css",
	"PUT /style.css",
}

// jigsawRoutes maps paths to resource-store slots (the server's resource
// tree, read-only after initialization).
var jigsawRoutes = map[string]int{
	"/index.html":       0,
	"/logo.png":         1,
	"/docs/manual.html": 2,
	"/style.css":        3,
}

// jigsawMIME maps path suffixes to response sizes (a stand-in for the MIME
// table's per-type framing overhead).
var jigsawMIME = map[string]int{
	".html": 48,
	".png":  512,
	".css":  24,
}

func jigsawParse(line string) (method, path string) {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' {
			return line[:i], line[i+1:]
		}
	}
	return line, "/"
}

func jigsawExt(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[i:]
		}
		if path[i] == '/' {
			break
		}
	}
	return ""
}

// Jigsaw models W3C's Jigsaw web server: workers pull request lines from a
// locked accept queue, parse them, route them through the (read-only)
// resource tree, and serve GETs / apply PUTs against a store guarded by a
// readers–writer protocol — while several server-wide counters (hit and
// byte statistics, an access-log cursor, a connection high-water mark, a
// 404 counter) are updated with no synchronization at all. The counters are
// the many real-but-benign races of jigsaw's Table 1 row; the RW-protected
// store contributes potential races that are protocol-protected (the lock
// is not *held* during the access, so locksets cannot prove safety) and are
// correctly refuted by RaceFuzzer.
func Jigsaw(nWorkers, nRequests int) Program {
	hitsStmt := event.StmtFor("jigsaw: hits++ (unsynchronized)")
	bytesStmt := event.StmtFor("jigsaw: bytesServed += n (unsynchronized)")
	logStmt := event.StmtFor("jigsaw: logCursor++ (unsynchronized)")
	hwmRead := event.StmtFor("jigsaw: read connHWM")
	hwmWrite := event.StmtFor("jigsaw: write connHWM")
	nfStmt := event.StmtFor("jigsaw: notFound++ (unsynchronized)")
	resRead := event.StmtFor("jigsaw: read resource body (RW-protected)")
	resWrite := event.StmtFor("jigsaw: write resource body (RW-protected)")
	if nRequests > len(jigsawRequests) {
		nRequests = len(jigsawRequests)
	}
	return func(t *conc.Thread) {
		queueLock := conc.NewMutex(t, "acceptLock")
		nextReq := conc.NewIntVar(t, "nextRequest", 0)
		store := conc.NewArray[int](t, "resourceStore", len(jigsawRoutes))
		storeRW := conc.NewRWLock(t, "storeRW")
		hits := conc.NewIntVar(t, "hits", 0)
		bytesServed := conc.NewIntVar(t, "bytesServed", 0)
		notFound := conc.NewIntVar(t, "notFound", 0)
		logCursor := conc.NewIntVar(t, "logCursor", 0)
		logBuf := conc.NewArray[int](t, "logBuf", 64)
		connHWM := conc.NewVar(t, "connHWM", 0)
		// Initialized-flag publication of the server properties (false alarms).
		props := conc.NewVar(t, "props", 0)
		propsReady := conc.NewVar(t, "propsReady", false)
		propsLock := conc.NewMutex(t, "propsLock")

		props.SetAt(t, siteApps390.Stmt(), 8080)
		propsLock.LockAt(t, siteApps391.Stmt())
		propsReady.SetAt(t, siteApps392.Stmt(), true)
		propsLock.UnlockAt(t, siteApps393.Stmt())
		for i := 0; i < store.Len(); i++ {
			store.SetAt(t, siteApps395.Stmt(), i, 1000+i*100)
		}

		workers := conc.ForkN(t, "httpd", nWorkers, func(c *conc.Thread, id int) {
			for {
				queueLock.LockAt(c, siteApps400.Stmt())
				req := nextReq.GetAt(c, siteApps401.Stmt())
				if req >= nRequests {
					queueLock.UnlockAt(c, siteApps403.Stmt())
					return
				}
				nextReq.SetAt(c, siteApps406.Stmt(), req+1)
				queueLock.UnlockAt(c, siteApps407.Stmt())

				propsLock.LockAt(c, siteApps409.Stmt())
				ready := propsReady.GetAt(c, siteApps410.Stmt())
				propsLock.UnlockAt(c, siteApps411.Stmt())
				if ready {
					_ = props.GetAt(c, siteApps413.Stmt()) // false alarm: published via the flag
				}

				method, path := jigsawParse(jigsawRequests[req])
				slot, routed := jigsawRoutes[path]
				if !routed {
					notFound.AddAt(c, nfStmt, 1) // real benign race
					continue
				}
				frame := jigsawMIME[jigsawExt(path)]

				var body int
				if method == "PUT" {
					storeRW.Lock(c)
					body = req*37 + 100
					store.SetAt(c, resWrite, slot, body)
					storeRW.Unlock(c)
				} else {
					storeRW.RLock(c)
					body = store.GetAt(c, resRead, slot)
					storeRW.RUnlock(c)
				}

				// Unsynchronized server statistics: real, benign races.
				hits.AddAt(c, hitsStmt, 1)
				bytesServed.AddAt(c, bytesStmt, body%97+frame)
				cur := logCursor.GetAt(c, jigsawReadLogCursor.Stmt())
				if cur < logBuf.Len()-1 {
					logBuf.SetAt(c, siteApps441.Stmt(), cur, req)
					logCursor.SetAt(c, logStmt, cur+1)
				}
				h := connHWM.GetAt(c, hwmRead)
				if id+1 > h {
					connHWM.SetAt(c, hwmWrite, id+1)
				}
			}
		})
		conc.JoinAll(t, workers)
	}
}

func init() {
	register(Benchmark{
		Name:        "cache4j",
		Description: "thread-safe cache; CacheCleaner _sleep race → uncaught InterruptedException (§5.3)",
		Paper: PaperRow{SLOC: 3897, NormalSec: 2.19, HybridSec: 4.26, RaceFuzzerSec: 2.61,
			HybridRaces: 18, RealRaces: 2, KnownRaces: -1, ExceptionPairs: 1, SimpleExceptions: 0, Probability: 1.0},
		Expect:       Expect{MinReal: 2, MaxReal: -1, MinPotential: 3, MinExceptionPairs: 1, MaxExceptionPairs: -1, MinProbability: 0.4},
		New:          func() Program { return Cache4j(2, 3) },
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "hedc",
		Description: "ETH web-crawler kernel; cancellation orders connection=null before cancelled=true → NPE",
		Paper: PaperRow{SLOC: 29948, NormalSec: 1.10, HybridSec: 1.35, RaceFuzzerSec: 1.11,
			HybridRaces: 9, RealRaces: 1, KnownRaces: 1, ExceptionPairs: 1, SimpleExceptions: 0, Probability: 0.86},
		Expect:       Expect{MinReal: 1, MaxReal: -1, MinPotential: 2, MinExceptionPairs: 1, MaxExceptionPairs: -1, MinProbability: 0.3},
		New:          func() Program { return Hedc(3, 5) },
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "weblech",
		Description: "website mirroring tool; unsynchronized queue-size check-then-act → index underflow",
		Paper: PaperRow{SLOC: 35175, NormalSec: 0.91, HybridSec: 1.92, RaceFuzzerSec: 1.36,
			HybridRaces: 27, RealRaces: 2, KnownRaces: 1, ExceptionPairs: 1, SimpleExceptions: 1, Probability: 0.83},
		Expect:       Expect{MinReal: 2, MaxReal: -1, MinPotential: 2, MinExceptionPairs: 1, MaxExceptionPairs: -1, MinProbability: 0.3},
		New:          func() Program { return Weblech(2, 8) },
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "jspider",
		Description: "configurable web spider; flag-published plugin configs — all potential races false",
		Paper: PaperRow{SLOC: 64933, NormalSec: 4.79, HybridSec: 4.88, RaceFuzzerSec: 4.81,
			HybridRaces: 29, RealRaces: 0, KnownRaces: -1, ExceptionPairs: 0, SimpleExceptions: 0, Probability: -1},
		Expect:       Expect{MinReal: 0, MaxReal: 0, MinPotential: 2, MinExceptionPairs: 0, MaxExceptionPairs: 0, MinProbability: 0},
		New:          func() Program { return Jspider(3, 6) },
		Phase1Trials: 6,
	})
	register(Benchmark{
		Name:        "jigsaw",
		Description: "W3C Jigsaw web-server skeleton; many unsynchronized statistics counters (real, benign)",
		Paper: PaperRow{SLOC: 381348, NormalSec: -1, HybridSec: -1, RaceFuzzerSec: 0.81,
			HybridRaces: 547, RealRaces: 36, KnownRaces: -1, ExceptionPairs: 0, SimpleExceptions: 0, Probability: 0.9},
		Expect:       Expect{MinReal: 4, MaxReal: -1, MinPotential: 6, MinExceptionPairs: 0, MaxExceptionPairs: 0, MinProbability: 0.4},
		New:          func() Program { return Jigsaw(3, 8) },
		Phase1Trials: 6,
	})
}

// Sites of the hand-labelled statements inside model threads (the Nop
// scheduling points and one jigsaw read), interned on first visit only.
var (
	cache4jSleeping     = event.Site{Name: "cache4j: sleeping"}
	hedcFetchPage       = event.Site{Name: "hedc: fetch page"}
	hedcWaitForTimeout  = event.Site{Name: "hedc: wait for timeout"}
	weblechDownloadURL  = event.Site{Name: "weblech: download url"}
	jspiderProcessTask  = event.Site{Name: "jspider: process task"}
	jigsawReadLogCursor = event.Site{Name: "jigsaw: read logCursor"}
)
