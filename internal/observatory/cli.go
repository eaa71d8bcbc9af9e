package observatory

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"racefuzzer/internal/core"
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/obs"
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
	// adds the run-log sink, the campaign metrics and the prof collector.
	Probes core.Probes
	// Prov is the provenance Start stamped on the run log and the corpus.
	Prov obs.Provenance
	// Server is the -http observatory (nil without the flag).
	Server *Server

	jsonLog, httpAddr string
	jsonFlush         int
	version, metrics  bool
	closeLog, stop    func()
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
	fs.IntVar(&c.jsonFlush, "jsonflush", 0, "with -json: flush the log every N records so tail -f sees them live (0 = flush only at close)")
	fs.StringVar(&c.httpAddr, "http", "", "serve the live campaign observatory (/events, /debug/perf, /healthz; /fleet/status with racefuzzer -coordinate) on this address, e.g. :8080")
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
// header, opens the -json log, and fans the log, the extra sinks and the
// observatory into Probes.Sink. Probes.Metrics is the observatory's
// aggregator, or a fresh one when metrics asks for the end-of-run table.
// Then it serves the observatory, and SIGINT closes the run log and exits
// 0 (Server.Serve).
func (c *CLI) Start(label string, metrics bool, extra ...obs.Sink) error {
	if c.httpAddr != "" {
		c.Server = New(Config{Addr: c.httpAddr})
	}
	c.metrics = metrics
	c.Probes.Metrics, c.Probes.Prof = c.Server.Campaign(), c.Server.Prof()
	if metrics && c.Probes.Metrics == nil {
		c.Probes.Metrics = obs.NewCampaignMetrics()
	}
	set := map[string]string{}
	c.flags.Visit(func(f *flag.Flag) { set[f.Name] = f.Value.String() })
	c.Prov = obs.CollectProvenance(c.tool, label, set)
	c.Store.SetProvenance(c.Prov)
	var sinks obs.MultiSink
	if c.jsonLog != "" {
		f, err := os.Create(c.jsonLog)
		if err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		jsonl := obs.NewJSONLSink(f).AutoFlush(c.jsonFlush).Header(c.Prov)
		sinks = append(sinks, jsonl)
		c.closeLog = sync.OnceFunc(func() {
			if err := jsonl.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: -json: %v\n", c.tool, err)
			}
		})
	}
	sinks = append(sinks, extra...)
	if s := c.Server.Sink(); s != nil {
		sinks = append(sinks, s)
	}
	if len(sinks) > 0 {
		c.Probes.Sink = sinks
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

// Finish ends the campaign: Close, the campaign metrics table when Start
// was asked for it, and the corpus summary line and save. It returns the
// exit status, 1 when the save fails.
func (c *CLI) Finish() int {
	c.Close()
	if c.metrics {
		fmt.Println()
		fmt.Print(c.Probes.Metrics.Snapshot().Table("campaign metrics").Render())
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
