// Command racefuzzer runs race-directed random testing on one of the
// built-in benchmark models:
//
//	racefuzzer -list
//	racefuzzer -bench figure1                 # full two-phase analysis
//	racefuzzer -bench cache4j -trials 200     # more fuzzing per pair
//	racefuzzer -bench figure2 -pair 0 -replay 12345 -trace
//	racefuzzer -bench figure1 -metrics -json runs.jsonl -progress
//	racefuzzer -bench figure1 -corpusdir corpus   # dedup against prior runs
//	racefuzzer -corpusdir corpus -budget 600      # adaptive campaign, all benches
//	racefuzzer -corpusdir corpus -regress         # replay every stored witness
//	racefuzzer -corpusdir corpus -budget 600 -coordinate :7070   # fleet campaign
//	racefuzzer -worker http://host:7070           # join a fleet as a worker
//
// The tool prints phase-1's potential races, then each pair's verdict:
// whether RaceFuzzer confirmed it real, the race-creation probability, and
// any exceptions exposed by random race resolution. Replays are exact: the
// seed fully determines the schedule.
//
// Corpus flags (see README "Race corpus"): -corpusdir persists every
// confirmed finding under a canonical signature so repeated campaigns mark
// re-sightings "[known]" and only archive witnesses for new signatures;
// -budget runs the adaptive campaign, splitting one global trial budget
// across targets toward the ones still discovering; -regress replays every
// stored witness and fails (exit 1) on any divergence or signature churn.
//
// Observability flags (see README "Observability"): -metrics prints a
// campaign metrics table, -json writes one structured record per execution
// (JSONL, -jsonflush makes it tail-able), -progress emits periodic campaign
// progress lines to stderr, and -cpuprofile/-memprofile write pprof
// profiles of the campaign. -http serves the live campaign observatory (see
// README "Live monitoring"): an SSE /events stream and /debug/perf
// scheduler latency aggregates. SIGINT under -http or -json closes the -json
// log and exits 0. The live coverage frontier is cmd/campaignreport -log over a
// -jsonflush run log. -perfdir exports a Perfetto
// timeline (Chrome trace-event JSON, open in https://ui.perfetto.dev) of
// each target's first confirming trial.
//
// Fleet flags (see README "Fleet campaigns"): -coordinate serves the fleet
// control plane on the given address and runs the -budget campaign on
// remote worker processes, which join with -worker <coordinator URL>. All
// corpus writes stay on the coordinator; workers stream result batches
// back over leases, so the fleet's corpus and findings match the
// single-process campaign at the same budget. With -timing the coordinator
// asks its workers to stamp durationNs on the records they stream back, so
// a fleet's -json log carries per-run wall time like a local one. -version
// prints this build's provenance — coordinator and workers should run
// identical builds, since that is what makes leased batches re-executable
// bit-identically.
//
// Analytics flags (see README "Campaign reports"): -report renders the
// offline campaign report (markdown) from a directory holding a run log
// and/or corpus, like cmd/campaignreport; -timing opts into per-run
// durationNs in -json records (off by default so run logs stay
// byte-identical across repeat runs).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"racefuzzer/internal/analytics"
	"racefuzzer/internal/bench"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/event"
	"racefuzzer/internal/fleet"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/observatory"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available benchmarks and exit")
		name    = flag.String("bench", "", "benchmark to analyze (see -list)")
		seed    = flag.Int64("seed", 1, "base seed for the campaign")
		trials  = flag.Int("trials", 100, "RaceFuzzer runs per potential pair")
		phase1  = flag.Int("phase1", 0, "phase-1 observations (0 = benchmark default)")
		pairIdx = flag.Int("pair", -1, "fuzz only the potential pair with this index")
		replay  = flag.Int64("replay", 0, "replay one run of -pair with this exact seed")
		dump    = flag.Bool("trace", false, "with -replay: dump the replayed event trace")
		explain = flag.Bool("explain", false, "with -replay: render the race-explanation timeline of the replayed run")
		explTr  = flag.String("explaintrace", "", "explain a saved flight recording (*.trace.jsonl) and exit")
		trDir   = flag.String("tracedir", "", "auto-capture a flight recording of each target's first confirming run into this directory")
		pfDir   = flag.String("perfdir", "", "export a Perfetto timeline (Chrome trace-event JSON) of each target's first confirming trial into this directory")
		dlMode  = flag.Bool("deadlocks", false, "run the deadlock-directed pipeline instead of races")
		atMode  = flag.Bool("atomicity", false, "run the atomicity-directed pipeline instead of races")
		workers = flag.Int("workers", 0, "trial executor workers: 0 or 1 = sequential, N = pool of N, -1 = GOMAXPROCS (reports are identical at any setting)")

		corpusDir = flag.String("corpusdir", "", "persist confirmed findings (dedup, coverage, witnesses) in this corpus directory")
		budget    = flag.Int("budget", 0, "run the adaptive campaign: split this global phase-2 trial budget across all benchmarks (or just -bench)")
		rounds    = flag.Int("rounds", 3, "with -budget: number of adaptive allocation rounds")
		regress   = flag.Bool("regress", false, "with -corpusdir: replay every stored finding and fail on divergence or signature churn")

		timing     = flag.Bool("timing", false, "record per-run wall-clock durations (durationNs) in emitted records; off by default so run logs stay byte-identical across repeat runs")
		reportDir  = flag.String("report", "", "analyze a campaign directory (run log and/or corpus) offline and print a markdown report, then exit (see cmd/campaignreport for CSV)")
		metrics    = flag.Bool("metrics", false, "print the campaign metrics table after the run")
		jsonLog    = flag.String("json", "", "write a structured JSONL run log to this file (one record per execution)")
		jsonFlush  = flag.Int("jsonflush", 0, "with -json: flush the log every N records so tail -f sees them live (0 = flush only at close)")
		progress   = flag.Bool("progress", false, "print periodic campaign progress lines to stderr")
		httpAddr   = flag.String("http", "", "serve the live campaign observatory (/events, /debug/perf, /healthz; /fleet/status with -coordinate) on this address, e.g. :8080")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at campaign end to this file")

		coordAddr = flag.String("coordinate", "", "with -budget: serve a fleet coordinator on this address (e.g. :7070) and run the campaign on remote -worker processes instead of in-process")
		workerURL = flag.String("worker", "", "run as a fleet worker: pull leased trial batches from the coordinator at this base URL (e.g. http://host:7070) until its campaign completes")
		version   = flag.Bool("version", false, "print the tool's build provenance (version, commit, toolchain) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.CollectProvenance("racefuzzer", "", nil).String())
		return
	}
	// A replay seed of 0 is legitimate (derived seeds can be 0 under negative
	// base seeds), so "was -replay given" is tracked explicitly rather than
	// by comparing against the zero default.
	replaySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "replay" {
			replaySet = true
		}
	})

	// -trace and -explain describe a single replayed run; without -replay
	// there is no such run, so reject the combination loudly instead of
	// silently ignoring the flag.
	if *dump && !replaySet {
		fmt.Fprintln(os.Stderr, "racefuzzer: -trace requires -replay (e.g. -bench figure2 -pair 0 -replay 12345 -trace)")
		os.Exit(2)
	}
	if *explain && !replaySet {
		fmt.Fprintln(os.Stderr, "racefuzzer: -explain requires -replay (e.g. -bench figure2 -pair 0 -replay 12345 -explain), or use -explaintrace on a saved recording")
		os.Exit(2)
	}
	// -replay replays one race-pipeline run; the deadlock, atomicity and
	// budget modes would return before reaching it.
	if replaySet && (*dlMode || *atMode || *budget > 0) {
		fmt.Fprintln(os.Stderr, "racefuzzer: -replay cannot be combined with -deadlocks, -atomicity or -budget (it replays one race-pipeline run)")
		os.Exit(2)
	}

	if *list {
		for _, b := range bench.All() {
			fmt.Printf("%-12s %s\n", b.Name, b.Description)
		}
		return
	}
	// Worker mode needs none of the local campaign flags: the coordinator
	// sends the execution config with each registration, and all corpus
	// writes happen coordinator-side.
	if *workerURL != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		var rejects obs.Counter
		err := fleet.RunWorker(ctx, fleet.WorkerOptions{
			Coordinator:      *workerURL,
			Provenance:       obs.CollectProvenance("racefuzzer", "worker", nil),
			PermanentRejects: &rejects,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "racefuzzer: "+format+"\n", args...)
			},
		})
		if n := rejects.Value(); n > 0 {
			fmt.Fprintf(os.Stderr, "racefuzzer: -worker: %d result batch(es) permanently rejected (requeued elsewhere; no work lost)\n", n)
		}
		if err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "racefuzzer: -worker: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *coordAddr != "" && *budget <= 0 {
		fmt.Fprintln(os.Stderr, "racefuzzer: -coordinate requires -budget (the fleet runs the adaptive campaign)")
		os.Exit(2)
	}
	if *reportDir != "" {
		c, err := analytics.LoadDir(*reportDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "racefuzzer: -report: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(analytics.Markdown(analytics.Analyze(c)))
		return
	}
	if *explTr != "" {
		rec, err := flightrec.LoadFile(*explTr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "racefuzzer: -explaintrace: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rec.Explain())
		return
	}
	// Open the corpus before choosing a mode: regress reads it, the adaptive
	// campaign and the normal pipelines write through it.
	var store *corpus.Store
	if *corpusDir != "" {
		var err error
		store, err = corpus.Open(*corpusDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "racefuzzer: -corpusdir: %v\n", err)
			os.Exit(1)
		}
		if store.Truncated() {
			fmt.Fprintf(os.Stderr, "racefuzzer: warning: corpus %s ended in a partial record (crash mid-save); it was skipped\n", *corpusDir)
		}
	}
	// Witness captures belong to the corpus unless the user pointed them
	// elsewhere explicitly.
	traceDir := *trDir
	if traceDir == "" && store != nil {
		traceDir = store.WitnessDir()
	}

	if *regress {
		if store == nil {
			fmt.Fprintln(os.Stderr, "racefuzzer: -regress requires -corpusdir")
			os.Exit(2)
		}
		results, ok := harness.Regress(store)
		fmt.Printf("regress: replaying %d stored finding(s) from %s\n", len(results), *corpusDir)
		failed := 0
		for _, r := range results {
			if !r.OK() {
				failed++
			}
			fmt.Printf("  %v\n", r)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "racefuzzer: regress: %d of %d finding(s) failed\n", failed, len(results))
			os.Exit(1)
		}
		fmt.Printf("regress: all %d finding(s) reproduced and matched their witnesses\n", len(results))
		return
	}

	if *name == "" && *budget <= 0 {
		fmt.Fprintln(os.Stderr, "racefuzzer: -bench is required (try -list), or run a campaign with -budget")
		os.Exit(2)
	}
	var b bench.Benchmark
	if *name != "" {
		var ok bool
		b, ok = bench.ByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "racefuzzer: unknown benchmark %q (try -list)\n", *name)
			os.Exit(2)
		}
	}
	opts := core.Options{
		Seed:         *seed,
		Phase1Trials: *phase1,
		Phase2Trials: *trials,
		MaxSteps:     b.MaxSteps,
		Label:        b.Name,
		Workers:      *workers,
		Corpus:       store,
		// The observability chain below fills in the rest of the probe
		// set; the pipeline and -budget paths share it.
		Probes: core.Probes{TraceDir: traceDir, PerfDir: *pfDir, Timing: *timing},
	}
	if opts.Phase1Trials == 0 {
		opts.Phase1Trials = b.Phase1Trials
	}
	if opts.Phase1Trials <= 0 {
		opts.Phase1Trials = 3 // the pipeline default, printed below
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "racefuzzer: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "racefuzzer: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "racefuzzer: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "racefuzzer: -memprofile: %v\n", err)
			}
		}()
	}

	// Assemble the observability chain: observatory, campaign metrics, JSONL
	// log, progress. The observatory rides the same nil-safe probes as the
	// rest — with -http unset every accessor below returns nil and the
	// campaign runs the identical unobserved code path.
	var obsv *observatory.Server
	if *httpAddr != "" {
		obsv = observatory.New(observatory.Config{Addr: *httpAddr})
	}
	var campaign *obs.CampaignMetrics
	if *metrics || obsv != nil {
		campaign = obsv.Campaign()
		if campaign == nil {
			campaign = obs.NewCampaignMetrics()
		}
		opts.Metrics = campaign
	}
	// The observatory's perf collector aggregates every execution into
	// /debug/perf; nil (no -http) profiles nothing, costing one predicted
	// branch per probe site.
	opts.Prof = obsv.Prof()
	// Provenance: the explicitly-set flags plus the tool's build identity,
	// stamped into both artifact trails (run-log header, corpus manifest) so
	// the offline report can attribute what it analyzes.
	provLabel := *name
	if provLabel == "" {
		provLabel = "campaign"
	}
	setFlags := map[string]string{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = f.Value.String() })
	prov := obs.CollectProvenance("racefuzzer", provLabel, setFlags)
	store.SetProvenance(prov)
	var sinks obs.MultiSink
	var closeLog func() // nil without -json
	if *jsonLog != "" {
		f, err := os.Create(*jsonLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "racefuzzer: -json: %v\n", err)
			os.Exit(1)
		}
		jsonl := obs.NewJSONLSink(f).AutoFlush(*jsonFlush).Header(prov)
		sinks = append(sinks, jsonl)
		closeLog = func() {
			if err := jsonl.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "racefuzzer: -json: %v\n", err)
			}
		}
	}
	var prog *obs.Progress
	if *progress {
		prog = obs.NewProgress(os.Stderr, 2*time.Second)
		sinks = append(sinks, prog)
	}
	if s := obsv.Sink(); s != nil {
		sinks = append(sinks, s)
	}
	if len(sinks) > 0 {
		opts.Sink = sinks
	}
	// Fleet coordinator: created before the observatory starts so its
	// /fleet/status endpoint rides the observatory mux.
	var coord *fleet.Coordinator
	fleetStore := store
	if *coordAddr != "" {
		if fleetStore == nil {
			fleetStore = corpus.NewStore()
		}
		coord = fleet.NewCoordinator(fleet.CoordinatorConfig{
			Addr:       *coordAddr,
			Store:      fleetStore,
			Workers:    *workers,
			Metrics:    campaign,
			Sink:       opts.Sink,
			Timing:     opts.Timing,
			Provenance: prov,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "racefuzzer: "+format+"\n", args...)
			},
		})
		obsv.Handle("/fleet/status", coord.StatusHandler())
	}
	// SIGINT/SIGTERM under -http or -json ends the campaign: the run log
	// closes on a whole record, subscribers get a final snapshot, and the
	// exit is 0.
	stopObsv, err := obsv.Serve("racefuzzer", closeLog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "racefuzzer: -http: %v\n", err)
		os.Exit(1)
	}
	finishObservers := func() {
		prog.Finish()
		if closeLog != nil {
			closeLog()
		}
		stopObsv()
		if *metrics {
			fmt.Println()
			fmt.Print(campaign.Snapshot().Table("campaign metrics").Render())
		}
		if store != nil {
			n, k := store.Counts()
			fmt.Printf("\ncorpus: %d new signature(s), %d known re-sighting(s), %d total (%s)\n",
				n, k, store.Len(), *corpusDir)
			if err := store.Save(); err != nil {
				fmt.Fprintf(os.Stderr, "racefuzzer: corpus save: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *budget > 0 {
		names := bench.Names()
		if *name != "" {
			names = []string{*name}
		}
		copt := harness.CampaignOptions{
			Seed:    *seed,
			Budget:  *budget,
			Rounds:  *rounds,
			Workers: *workers,
			Corpus:  store,
			Probes:  opts.Probes,
		}
		var rows []harness.CampaignRow
		if coord != nil {
			// Fleet mode: the same campaign driver, but every unit executes
			// on a worker and reaches the corpus through the coordinator's
			// merge. Witness capture happens worker-side, so the local
			// TraceDir is irrelevant here.
			if err := coord.Start(); err != nil {
				fmt.Fprintf(os.Stderr, "racefuzzer: -coordinate: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "racefuzzer: fleet coordinator listening on http://%s (join with: racefuzzer -worker http://<this-host>:%s)\n",
				coord.Addr(), portOf(coord.Addr()))
			coord.SetTargets(names)
			copt.Corpus = fleetStore
			copt.Executor = coord
			var err error
			rows, err = harness.RunCampaign(names, copt)
			coord.Finish()
			if err != nil {
				fmt.Fprintf(os.Stderr, "racefuzzer: fleet campaign: %v\n", err)
				os.Exit(1)
			}
			// Give live workers a beat to collect their "done" and exit
			// before the control plane goes away.
			for deadline := time.Now().Add(5 * time.Second); !coord.Drained() && time.Now().Before(deadline); {
				time.Sleep(100 * time.Millisecond)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			coord.Shutdown(ctx)
			cancel()
		} else {
			rows = harness.RunAdaptiveCampaign(names, copt)
		}
		fmt.Print(harness.RenderCampaign(rows))
		finishObservers()
		return
	}

	fmt.Printf("== %s: %s\n", b.Name, b.Description)
	if *dlMode {
		reps := core.AnalyzeDeadlocks(b.New(), opts)
		fmt.Printf("deadlock pipeline: %d potential lock cycle(s)\n", len(reps))
		for _, r := range reps {
			fmt.Printf("  %v\n", r)
			printWitness(r.TracePath, r.TraceErr)
			printPerf(r.PerfPath, r.PerfErr)
		}
		finishObservers()
		return
	}
	if *atMode {
		reps := core.AnalyzeAtomicity(b.New(), opts)
		fmt.Printf("atomicity pipeline: %d inferred block(s)\n", len(reps))
		for _, r := range reps {
			fmt.Printf("  %v\n", r)
			printWitness(r.TracePath, r.TraceErr)
			printPerf(r.PerfPath, r.PerfErr)
		}
		finishObservers()
		return
	}
	pairs := core.DetectPotentialRaces(b.New(), opts)
	fmt.Printf("phase 1 (hybrid detection, %d observations): %d potential racing pair(s)\n",
		opts.Phase1Trials, len(pairs))
	for i, p := range pairs {
		fmt.Printf("  [%d] %v\n", i, p)
	}
	if replaySet {
		if *pairIdx < 0 || *pairIdx >= len(pairs) {
			fmt.Fprintln(os.Stderr, "racefuzzer: -replay needs a valid -pair index")
			os.Exit(2)
		}
		pair := pairs[*pairIdx]
		fmt.Printf("\nreplaying pair %v with seed %d\n", pair, *replay)
		res, _, rec := core.Record(b.New(), core.NewRaceTarget(pair), *replay, opts)
		for _, a := range rec.Actions() {
			if a.Kind == "race" {
				fmt.Printf("  %v\n", realRace(a))
			}
		}
		for _, ex := range res.Exceptions {
			fmt.Printf("  exception: %v\n", ex)
		}
		if res.Deadlock != nil {
			fmt.Printf("  %v\n", res.Deadlock)
		}
		if *explain {
			fmt.Println()
			fmt.Print(rec.Explain())
		}
		if *dump {
			fmt.Printf("\nevent trace (most recent %d):\n", traceTail)
			fmt.Print(rec.Dump(traceTail))
		}
		finishObservers()
		return
	}
	if len(pairs) == 0 {
		finishObservers()
		return
	}

	fmt.Printf("\nphase 2 (RaceFuzzer, %d runs per pair):\n", opts.Phase2Trials)
	realCount, excCount := 0, 0
	for i, pair := range pairs {
		if *pairIdx >= 0 && i != *pairIdx {
			continue
		}
		rep := core.FuzzPair(b.New(), pair, i, opts)
		fmt.Printf("  [%d] %v\n", i, rep)
		if rep.IsReal {
			realCount++
			fmt.Printf("      replay a race-creating run with: -pair %d -replay %d\n", i, rep.FirstRaceSeed)
			if rep.FirstExceptionTrial >= 0 {
				excCount++
				fmt.Printf("      replay an exception-throwing run with: -pair %d -replay %d\n", i, rep.FirstExceptionSeed)
			}
			printWitness(rep.TracePath, rep.TraceErr)
			printPerf(rep.PerfPath, rep.PerfErr)
		}
	}
	fmt.Printf("\nsummary: %d potential, %d real, %d with exceptions (paper row: %d potential, %d real)\n",
		len(pairs), realCount, excCount, b.Paper.HybridRaces, b.Paper.RealRaces)
	finishObservers()
}

// traceTail is the number of most recent events -trace prints.
const traceTail = 200

// realRace rebuilds the finding a recorded race action stands for, so a
// replay prints the same line the live policy's RealRace renders.
func realRace(a flightrec.Action) core.RealRace {
	postponed := make([]event.ThreadID, len(a.Others))
	for i, t := range a.Others {
		postponed[i] = event.ThreadID(t)
	}
	return core.RealRace{
		Pair: event.MakeStmtPair(event.StmtFor(a.Stmt), event.StmtFor(a.OtherStmt)),
		Loc:  event.MemLoc(a.Loc), LocName: a.LocName,
		Candidate: event.ThreadID(a.Thread), Postponed: postponed,
		Step: a.Step, CandidateFirst: a.CandidateFirst,
	}
}

// portOf extracts the port of a host:port listen address (for the join hint
// printed at coordinator startup).
func portOf(addr string) string {
	if _, port, err := net.SplitHostPort(addr); err == nil {
		return port
	}
	return addr
}

// printWitness reports an auto-captured witness recording (or a failed
// capture attempt) under a target's verdict line.
func printWitness(path string, err error) {
	if err != nil {
		fmt.Printf("      witness capture failed: %v\n", err)
		return
	}
	if path != "" {
		fmt.Printf("      witness trace: %s (render with -explaintrace %s)\n", path, path)
	}
}

// printPerf reports an exported Perfetto timeline (or a failed export) under
// a target's verdict line.
func printPerf(path string, err error) {
	if err != nil {
		fmt.Printf("      perf export failed: %v\n", err)
		return
	}
	if path != "" {
		fmt.Printf("      perf timeline: %s (open in https://ui.perfetto.dev)\n", path)
	}
}
