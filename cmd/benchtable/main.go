// Command benchtable regenerates the paper's evaluation artifacts on this
// machine's models:
//
//	benchtable                      # full Table 1 (all benchmarks)
//	benchtable -names figure1,sor   # selected rows
//	benchtable -sweep               # the Figure-2 probability sweep (§3.2)
//	benchtable -trials 100 -seed 7
//	benchtable -budget 600 -corpusdir corpus   # adaptive budget campaign
//
// Output: the measured table, the paper's original numbers for side-by-side
// comparison, and (with -sweep) the probability-vs-prefix-length experiment.
// With -budget the tool instead runs the adaptive campaign: one global
// phase-2 trial budget split across benchmarks round by round, reweighted
// toward targets still producing new corpus signatures; -corpusdir persists
// the findings (and enables cross-run dedup) like cmd/racefuzzer.
//
// -json writes the JSONL run log and -http serves the live observatory
// (/events, /debug/perf, /healthz) like cmd/racefuzzer; SIGINT under -http
// or -json closes the run log and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/observatory"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status, so every deferred
// close (the -json run log above all) runs on every path.
func run() int {
	var (
		names      = flag.String("names", "", "comma-separated benchmark names (default: all)")
		seed       = flag.Int64("seed", 12345, "base seed")
		trials     = flag.Int("trials", 100, "RaceFuzzer runs per potential pair")
		timingRuns = flag.Int("timing-runs", 5, "runs averaged per runtime column")
		sweep      = flag.Bool("sweep", false, "also run the Figure-2 probability sweep")
		only       = flag.Bool("sweep-only", false, "run only the Figure-2 sweep")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		verify     = flag.Bool("verify", false, "check measured rows against each model's designed ground truth")
		trDir      = flag.String("tracedir", "", "auto-capture a flight recording of each target's first confirming run into this directory")
		pfDir      = flag.String("perfdir", "", "export a Perfetto timeline of each target's first confirming trial into this directory")
		workers    = flag.Int("workers", 0, "trial executor workers: 0 or 1 = sequential, N = pool of N, -1 = GOMAXPROCS (tables are identical at any setting)")

		corpusDir = flag.String("corpusdir", "", "persist confirmed findings (dedup, coverage, witnesses) in this corpus directory")
		budget    = flag.Int("budget", 0, "run the adaptive campaign instead of Table 1: split this global phase-2 trial budget across the benchmarks")
		rounds    = flag.Int("rounds", 3, "with -budget: number of adaptive allocation rounds")
		httpAddr  = flag.String("http", "", "serve the live campaign observatory (/events, /debug/perf, /healthz) on this address, e.g. :8080")

		jsonLog   = flag.String("json", "", "write a structured JSONL run log to this file (one record per execution), analyzable with cmd/campaignreport")
		jsonFlush = flag.Int("jsonflush", 0, "with -json: flush the log every N records so tail -f sees them live (0 = flush only at close)")
		timing    = flag.Bool("timing", false, "record per-run wall-clock durations (durationNs) in emitted records; off by default so run logs stay byte-identical across repeat runs")
		version   = flag.Bool("version", false, "print the tool's build provenance (version, commit, toolchain) and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.CollectProvenance("benchtable", "", nil).String())
		return 0
	}

	// Provenance: build identity plus the explicitly-set flags, stamped into
	// the run-log header and the corpus manifest like cmd/racefuzzer.
	setFlags := map[string]string{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = f.Value.String() })
	prov := obs.CollectProvenance("benchtable", "benchtable", setFlags)

	// The observatory is nil unless -http was given; every accessor on a nil
	// server returns nil, and nil probes no-op all the way down.
	var obsv *observatory.Server
	if *httpAddr != "" {
		obsv = observatory.New(observatory.Config{Addr: *httpAddr})
	}

	var list []string
	if *names != "" {
		list = strings.Split(*names, ",")
	}

	var store *corpus.Store
	if *corpusDir != "" {
		var err error
		store, err = corpus.Open(*corpusDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: -corpusdir: %v\n", err)
			return 1
		}
	}
	store.SetProvenance(prov)

	// The JSONL run log and the observatory sink fan in together; the
	// provenance header leads the log like cmd/racefuzzer's.
	var closeLog func() // nil without -json
	var sinks obs.MultiSink
	if *jsonLog != "" {
		f, err := os.Create(*jsonLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: -json: %v\n", err)
			return 1
		}
		jsonl := obs.NewJSONLSink(f).AutoFlush(*jsonFlush).Header(prov)
		sinks = append(sinks, jsonl)
		closeLog = sync.OnceFunc(func() {
			if err := jsonl.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "benchtable: -json: %v\n", err)
			}
		})
		defer closeLog()
	}
	// SIGINT/SIGTERM under -http or -json ends the run: the run log closes
	// on a whole record, subscribers get a final snapshot, and the exit is 0.
	stopObsv, err := obsv.Serve("benchtable", closeLog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtable: -http: %v\n", err)
		return 1
	}
	defer stopObsv()
	if s := obsv.Sink(); s != nil {
		sinks = append(sinks, s)
	}
	probes := core.Probes{
		TraceDir: *trDir, PerfDir: *pfDir, Timing: *timing,
		Metrics: obsv.Campaign(), Prof: obsv.Prof(),
	}
	if len(sinks) > 0 {
		probes.Sink = sinks
	}

	saveCorpus := func() int {
		if store == nil {
			return 0
		}
		n, k := store.Counts()
		fmt.Printf("\ncorpus: %d new signature(s), %d known re-sighting(s), %d total (%s)\n",
			n, k, store.Len(), *corpusDir)
		if err := store.Save(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtable: corpus save: %v\n", err)
			return 1
		}
		return 0
	}

	if *budget > 0 {
		if probes.TraceDir == "" && store != nil {
			probes.TraceDir = store.WitnessDir()
		}
		rows := harness.RunAdaptiveCampaign(list, harness.CampaignOptions{
			Seed: *seed, Budget: *budget, Rounds: *rounds, Workers: *workers,
			Corpus: store, Probes: probes,
		})
		fmt.Println(harness.RenderCampaign(rows))
		return saveCorpus()
	}

	if !*only {
		rows := harness.RunTable1(list, harness.Options{
			Seed: *seed, Phase2Trials: *trials, BaselineTrials: *trials, TimingRuns: *timingRuns,
			Workers: *workers, Corpus: store, Probes: probes,
		})
		if *csv {
			fmt.Print(harness.CSVTable1(rows))
		} else {
			fmt.Println(harness.RenderTable1(rows))
			fmt.Println(harness.RenderPaperTable(rows))
		}
		if code := saveCorpus(); code != 0 {
			return code
		}
		if *verify {
			out, ok := harness.VerifyAll(rows)
			fmt.Print(out)
			if !ok {
				return 1
			}
		}
	}
	if *sweep || *only {
		points := harness.Figure2Sweep([]int{5, 10, 25, 50, 100, 250, 500}, *trials, *seed)
		if *csv {
			fmt.Print(harness.CSVFigure2(points))
		} else {
			fmt.Println(harness.RenderFigure2(points))
		}
		noise := harness.NoiseSweep([]int{0, 2, 4, 8}, *trials, *seed)
		if !*csv {
			fmt.Println(harness.RenderNoise(noise))
		}
	}
	return 0
}
