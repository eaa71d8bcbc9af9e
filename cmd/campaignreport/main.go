// Command campaignreport renders offline analytics reports from a
// campaign's artifacts — the JSONL run log (-json) and/or the corpus
// directory (-corpusdir) a racefuzzer/benchtable campaign wrote:
//
//	campaignreport -dir campaign/                      # markdown to stdout
//	campaignreport -dir campaign/ -md report.md -csv report.csv
//	campaignreport -log run.jsonl -corpusdir corpus -csv report.csv
//	campaignreport -checkspans corpus/fleetspans.jsonl # validate a span trail
//
// The report covers discovery curves (new signatures / coverage cells vs
// trials), trials-to-first-confirm distributions, per-round dedup trends, a
// coverage-frontier summary with a Chao1 species-richness estimate, a
// bandit audit of allocated budget vs realized yield, and a reconciliation
// table cross-checking the log against the corpus manifest. Reports are
// deterministic: byte-identical inputs render byte-identical bytes, so CI
// can golden-test them (see the report-smoke job), and two campaigns
// compare by diffing their reports.
//
// The live coverage frontier is -log over the run log of a campaign still
// running with -json run.jsonl -jsonflush N: the loader skips a torn
// trailing line, so the report covers every record flushed so far.
package main

import (
	"flag"
	"fmt"
	"os"

	"racefuzzer/internal/analytics"
	"racefuzzer/internal/fleetspan"
)

func main() {
	var (
		dir       = flag.String("dir", "", "campaign directory holding the run log (run.jsonl, else the first *.jsonl that is not a corpus or span-trail file) and/or the corpus (MANIFEST.json, or a corpus/ subdirectory)")
		log       = flag.String("log", "", "JSONL run log to analyze (alternative to -dir)")
		corpusDir = flag.String("corpusdir", "", "corpus directory to analyze (alternative to -dir)")
		csvOut    = flag.String("csv", "", "write the multi-section CSV tables to this file")
		mdOut     = flag.String("md", "", "write the markdown report to this file (default: stdout when no other output is chosen)")
		checkSpan = flag.String("checkspans", "", "validate a fleetspans.jsonl span trail against the schema (causal order, identity, outcome vocabulary) and print a summary; exits nonzero on any violation")
	)
	flag.Parse()

	if *checkSpan != "" {
		trails, err := fleetspan.LoadTrails(*checkSpan)
		if err != nil {
			fatal(err)
		}
		ingested, stitched := 0, 0
		for _, tr := range trails {
			if tr.Outcome == fleetspan.OutcomeIngested {
				ingested++
				if tr.Stitched() {
					stitched++
				}
			}
		}
		fmt.Printf("campaignreport: %s: %d attempts valid (%d ingested, %d stitched)\n",
			*checkSpan, len(trails), ingested, stitched)
		return
	}

	var r *analytics.Report
	switch {
	case *dir != "":
		r = loadReport(*dir)
	case *log != "" || *corpusDir != "":
		c, err := analytics.Load(analytics.Source{Log: *log, CorpusDir: *corpusDir})
		if err != nil {
			fatal(err)
		}
		r = analytics.Analyze(c)
	default:
		fmt.Fprintln(os.Stderr, "campaignreport: nothing to analyze; give -dir, or -log and/or -corpusdir (try -h)")
		os.Exit(2)
	}

	wrote := false
	if *csvOut != "" {
		writeFile(*csvOut, []byte(analytics.CSV(r)))
		wrote = true
	}
	if *mdOut != "" {
		writeFile(*mdOut, []byte(analytics.Markdown(r)))
		wrote = true
	}
	if !wrote {
		fmt.Print(analytics.Markdown(r))
	}
}

func loadReport(dir string) *analytics.Report {
	c, err := analytics.LoadDir(dir)
	if err != nil {
		fatal(err)
	}
	return analytics.Analyze(c)
}

func writeFile(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "campaignreport: wrote %s (%d bytes)\n", path, len(data))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "campaignreport: %v\n", err)
	os.Exit(1)
}
