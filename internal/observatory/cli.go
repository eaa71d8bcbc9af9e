package observatory

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"racefuzzer/internal/analytics"
	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/obs"
	"racefuzzer/internal/schedprof"
)

// CLI is the campaign runtime cmd/racefuzzer and cmd/benchtable share: the
// flags both take for the same thing, and the one wiring behind them. A
// command registers it before flag.Parse, then calls OpenCorpus, Start,
// its own campaign through Store and Probes, and Finish; it defers Close,
// so every exit path leaves a run log of whole records.
type CLI struct {
	tool  string
	flags *flag.FlagSet

	// CorpusDir is -corpusdir; Store is its corpus once OpenCorpus ran
	// (nil without the flag).
	CorpusDir string
	Store     *corpus.Store
	// Probes carries -tracedir, -perfdir and -timing from the flags; Start
	// adds the sink (run log, campaign metrics or both) and the prof
	// collector.
	Probes core.Probes
	// Prov is the provenance Start stamped on the run log and the corpus.
	Prov obs.Provenance
	// Server is the -http observatory (nil without the flag).
	Server *Server

	jsonLog, httpAddr string
	jsonFlush         int
	version           bool
	// metrics is the -metrics fold of the run records (nil without it).
	metrics        *analytics.Live
	closeLog, stop func()
}

// NewCLI registers the shared campaign flags on fs for the command tool,
// which names the command in provenance and prefixes its stderr lines.
func NewCLI(tool string, fs *flag.FlagSet) *CLI {
	c := &CLI{tool: tool, flags: fs}
	fs.StringVar(&c.CorpusDir, "corpusdir", "", "persist confirmed findings (dedup, coverage, witnesses) in this corpus directory")
	fs.StringVar(&c.Probes.TraceDir, "tracedir", "", "auto-capture a flight recording of each target's first confirming run into this directory (default with -corpusdir: its witnesses/)")
	fs.StringVar(&c.Probes.PerfDir, "perfdir", "", "export a Perfetto timeline (Chrome trace-event JSON) of each target's first confirming trial into this directory")
	fs.BoolVar(&c.Probes.Timing, "timing", false, "record per-run wall-clock durations (durationNs) in emitted records; off by default so run logs stay byte-identical across repeat runs")
	fs.StringVar(&c.jsonLog, "json", "", "write a structured JSONL run log to this file (one record per execution), analyzable with cmd/campaignreport")
	fs.IntVar(&c.jsonFlush, "jsonflush", 0, "with -json: flush the log every N records so tail -f and campaignreport -log see them live (0 = flush only at close)")
	fs.StringVar(&c.httpAddr, "http", "", "serve the live campaign observatory (/debug/perf, /healthz; /fleet/status with racefuzzer -coordinate) on this address, e.g. :8080")
	fs.BoolVar(&c.version, "version", false, "print the tool's build provenance (version, commit, toolchain) and exit")
	return c
}

// Version prints the build's provenance and reports true when -version was
// given.
func (c *CLI) Version() bool {
	if c.version {
		fmt.Println(obs.CollectProvenance(c.tool, "", nil).String())
	}
	return c.version
}

// OpenCorpus opens -corpusdir (nothing without it), warns on stderr when
// the corpus ended in a torn record, and points witness capture at the
// corpus unless -tracedir names another directory.
func (c *CLI) OpenCorpus() error {
	if c.CorpusDir == "" {
		return nil
	}
	s, err := corpus.Open(c.CorpusDir)
	if err != nil {
		return fmt.Errorf("-corpusdir: %w", err)
	}
	if s.Truncated() {
		fmt.Fprintf(os.Stderr, "%s: warning: corpus %s ended in a partial record (crash mid-save); it was skipped\n", c.tool, c.CorpusDir)
	}
	c.Store = s
	if c.Probes.TraceDir == "" {
		c.Probes.TraceDir = s.WitnessDir()
	}
	return nil
}

// Start wires and starts the campaign's observation. It stamps provenance
// (the set flags, under label) on the corpus manifest and the run-log
// header, and opens the -json log as Probes.Sink. When metrics asks for
// the end-of-run tables, a fresh analytics.Live fold joins the sink beside
// the log and Probes.Prof is the observatory's collector or, without -http, a
// fresh one; otherwise Probes.Prof is the observatory's collector alone.
// Then it serves the observatory, and SIGINT closes the run log and exits
// 0 (Server.Serve).
func (c *CLI) Start(label string, metrics bool) error {
	if c.httpAddr != "" {
		c.Server = New(c.httpAddr)
	}
	c.Probes.Prof = c.Server.Prof()
	if metrics {
		c.metrics = &analytics.Live{}
		if c.Probes.Prof == nil {
			c.Probes.Prof = schedprof.NewCollector()
		}
	}
	set := map[string]string{}
	c.flags.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	c.Prov = obs.CollectProvenance(c.tool, label, set)
	c.Store.SetProvenance(c.Prov)
	if c.jsonLog != "" {
		f, err := os.Create(c.jsonLog)
		if err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		jsonl := obs.NewJSONLSink(f).AutoFlush(c.jsonFlush).Header(c.Prov)
		c.Probes.Sink = jsonl
		c.closeLog = sync.OnceFunc(func() {
			if err := jsonl.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -json: %v\n", c.tool, err)
			}
		})
	}
	if c.metrics != nil {
		c.Probes.Sink = obs.MultiSink{c.Probes.Sink, c.metrics}
	}
	stop, err := c.Server.Serve(c.tool, c.closeLog)
	if err != nil {
		return fmt.Errorf("-http: %w", err)
	}
	c.stop = sync.OnceFunc(stop)
	return nil
}

// Close closes the run log and drains the observatory; it is idempotent.
func (c *CLI) Close() {
	if c.closeLog != nil {
		c.closeLog()
	}
	if c.stop != nil {
		c.stop()
	}
}

// Finish ends the campaign: Close, the campaign metrics table and the
// scheduler table when Start was asked for them, and the corpus summary
// line and save. It returns the exit status, 1 when the save fails. The
// scheduler table needs profiled trials, so a fleet coordinator, whose
// trials run on its workers, prints none.
func (c *CLI) Finish() int {
	c.Close()
	if c.metrics != nil {
		fmt.Println()
		fmt.Print(c.metrics.Totals().Snapshot().Table("campaign metrics").Render())
		if c.Probes.Prof.Trials() > 0 {
			fmt.Println()
			fmt.Print(c.Probes.Prof.Summary().Snapshot().Table("scheduler profile").Render())
		}
	}
	if c.Store == nil {
		return 0
	}
	n, k := c.Store.Counts()
	fmt.Printf("\ncorpus: %d new signature(s), %d known re-sighting(s), %d total (%s)\n",
		n, k, c.Store.Len(), c.CorpusDir)
	if err := c.Store.Save(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: corpus save: %v\n", c.tool, err)
		return 1
	}
	return 0
}
