package analytics

import (
	"fmt"
	"strings"
)

// Markdown renders the report as GitHub-flavored markdown tables. The output
// is deterministic: byte-identical reports render byte-identically.
func Markdown(r *Report) string {
	var b strings.Builder
	b.WriteString("# Campaign report\n\n")
	writeSourcesMD(&b, r)
	writeTotalsMD(&b, r)
	writeCurveMD(&b, r)
	writeTargetsMD(&b, r)
	writeTTFCMD(&b, r)
	writeRoundsMD(&b, r)
	writeFrontierMD(&b, r)
	writeAuditMD(&b, r)
	writeChecksMD(&b, r)
	return b.String()
}

func writeSourcesMD(b *strings.Builder, r *Report) {
	fmt.Fprintf(b, "## Sources\n\n")
	if r.Sources.LogName != "" {
		note := ""
		if r.Sources.LogTruncated {
			note = " (truncated final line skipped)"
		}
		fmt.Fprintf(b, "- run log: `%s`%s\n", r.Sources.LogName, note)
	}
	if r.Sources.CorpusName != "" {
		note := ""
		if r.Sources.CorpusTruncated {
			note = " (truncated final line skipped)"
		}
		fmt.Fprintf(b, "- corpus: `%s`%s\n", r.Sources.CorpusName, note)
	}
	if p := r.Provenance; p != nil {
		fmt.Fprintf(b, "- log provenance: %s\n", p.String())
	}
	if p := r.CorpusProvenance; p != nil {
		fmt.Fprintf(b, "- corpus provenance: %s\n", p.String())
	}
	if len(r.Witnesses) > 0 {
		parts := make([]string, 0, len(r.Witnesses))
		for _, w := range r.Witnesses {
			parts = append(parts, fmt.Sprintf("%s ×%d", w.Name, w.Count))
		}
		fmt.Fprintf(b, "- witnesses: %s\n", strings.Join(parts, ", "))
	}
	b.WriteString("\n")
}

func writeTotalsMD(b *strings.Builder, r *Report) {
	t := r.Totals
	b.WriteString("## Totals\n\n")
	b.WriteString("| Runs | Phase1 | Phase2 | Confirming | New sigs | Known | New cells | Dedup rate | Exceptions | Deadlocks | Aborted |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	fmt.Fprintf(b, "| %d | %d | %d | %d | %d | %d | %d | %s | %d | %d | %d |\n\n",
		t.Runs, t.Phase1, t.Phase2, t.Confirming, t.NewSigs, t.KnownSigs, t.NewCells,
		pct(t.DedupRate()), t.Exceptions, t.Deadlocks, t.Aborted)
	if t.Timed() {
		fmt.Fprintf(b, "Wall clock (timed runs): %.3fs across %d runs.\n\n",
			float64(t.WallNs)/1e9, t.Runs)
	}
}

func writeCurveMD(b *strings.Builder, r *Report) {
	b.WriteString("## Discovery curve (global)\n\n")
	if len(r.Global.Points) == 0 {
		b.WriteString("No phase-2 trials in the log.\n\n")
		return
	}
	b.WriteString("| Trials | New signatures (cum.) | New cells (cum.) |\n|---:|---:|---:|\n")
	for _, p := range r.Global.Points {
		fmt.Fprintf(b, "| %d | %d | %d |\n", p.Trials, p.Sigs, p.Cells)
	}
	b.WriteString("\n")
}

func writeTargetsMD(b *strings.Builder, r *Report) {
	if len(r.Targets) == 0 {
		return
	}
	b.WriteString("## Per-target discovery\n\n")
	b.WriteString("| Target | Runs | Phase2 | Confirming | New sigs | Known | New cells |\n|---|---:|---:|---:|---:|---:|---:|\n")
	for _, t := range r.Targets {
		fmt.Fprintf(b, "| %s | %d | %d | %d | %d | %d | %d |\n",
			t.Label, t.Runs, t.Phase2, t.Confirming, t.NewSigs, t.KnownSigs, t.NewCells)
	}
	b.WriteString("\n")
}

func writeTTFCMD(b *strings.Builder, r *Report) {
	b.WriteString("## Trials to first confirm\n\n")
	t := r.TTFC
	if len(t.Samples) == 0 {
		fmt.Fprintf(b, "No target confirmed (%d unconfirmed).\n\n", t.Unconfirmed)
		return
	}
	fmt.Fprintf(b, "| Targets confirmed | Unconfirmed | Min | Median | Max |\n|---:|---:|---:|---:|---:|\n| %d | %d | %d | %s | %d |\n\n",
		len(t.Samples), t.Unconfirmed, t.Min(), num(t.Median()), t.Max())
}

func writeRoundsMD(b *strings.Builder, r *Report) {
	if len(r.Rounds) == 0 {
		return
	}
	b.WriteString("## Dedup trend per round\n\n")
	b.WriteString("| Round | Runs | New sigs | Known | New cells | Dedup rate |\n|---|---:|---:|---:|---:|---:|\n")
	for _, rt := range r.Rounds {
		fmt.Fprintf(b, "| %s | %d | %d | %d | %d | %s |\n",
			roundName(rt.Round), rt.Phase2, rt.NewSigs, rt.KnownSigs, rt.NewCells, pct(rt.DedupRate()))
	}
	b.WriteString("\n")
}

func writeFrontierMD(b *strings.Builder, r *Report) {
	f := r.Frontier
	b.WriteString("## Coverage frontier\n\n")
	fmt.Fprintf(b, "| Cells | Signatures observed | Singletons (f1) | Doubletons (f2) | Chao1 est. richness | Completeness |\n|---:|---:|---:|---:|---:|---:|\n| %d | %d | %d | %d | %s | %s%% |\n\n",
		f.Cells, f.Observed, f.F1, f.F2, num(f.Chao1), num(f.Completeness()))
	fmt.Fprintf(b, "Abundance source: %s.\n\n", f.AbundanceSource)
	if len(f.ByKind) > 0 {
		b.WriteString("| Kind | Cells |\n|---|---:|\n")
		for _, k := range f.ByKind {
			fmt.Fprintf(b, "| %s | %d |\n", k.Name, k.Count)
		}
		b.WriteString("\n")
	}
	if len(f.ByBranch) > 0 {
		b.WriteString("| Branch | Cells |\n|---|---:|\n")
		for _, k := range f.ByBranch {
			fmt.Fprintf(b, "| %s | %d |\n", k.Name, k.Count)
		}
		b.WriteString("\n")
	}
}

func writeAuditMD(b *strings.Builder, r *Report) {
	if len(r.Audit) == 0 {
		return
	}
	b.WriteString("## Bandit audit (allocated vs realized yield)\n\n")
	b.WriteString("| Round | Target | Trials | New sigs | New cells | Flag |\n|---|---|---:|---:|---:|---|\n")
	for _, a := range r.Audit {
		fmt.Fprintf(b, "| %s | %s | %d | %d | %d | %s |\n",
			roundName(a.Round), a.Target, a.Phase2, a.NewSigs, a.NewCells, dash(a.Flag))
	}
	b.WriteString("\n")
}

func writeChecksMD(b *strings.Builder, r *Report) {
	if len(r.Checks) == 0 {
		return
	}
	b.WriteString("## Reconciliation (log vs corpus)\n\n")
	b.WriteString("| Check | Log | Corpus | Match |\n|---|---:|---:|---|\n")
	for _, c := range r.Checks {
		fmt.Fprintf(b, "| %s | %d | %d | %s |\n", c.Name, c.Log, c.Corpus, yesNo(c.Match()))
	}
	b.WriteString("\n")
}

// CSV renders the report as a multi-section CSV: each section opens with a
// `# name` comment line, then a header row and data rows, separated by blank
// lines — grep-able whole, or split on the comment lines.
func CSV(r *Report) string {
	var b strings.Builder
	b.WriteString("# totals\nruns,phase1,phase2,confirming,new_sigs,known_sigs,new_cells,dedup_rate,exceptions,deadlocks,aborted,wall_ns\n")
	t := r.Totals
	fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%s,%d,%d,%d,%d\n\n",
		t.Runs, t.Phase1, t.Phase2, t.Confirming, t.NewSigs, t.KnownSigs, t.NewCells,
		num(t.DedupRate()), t.Exceptions, t.Deadlocks, t.Aborted, t.WallNs)

	b.WriteString("# discovery_curve\ntrials,cum_new_sigs,cum_new_cells\n")
	for _, p := range r.Global.Points {
		fmt.Fprintf(&b, "%d,%d,%d\n", p.Trials, p.Sigs, p.Cells)
	}
	b.WriteString("\n# targets\ntarget,runs,phase2,confirming,new_sigs,known_sigs,new_cells\n")
	for _, ts := range r.Targets {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d,%d\n",
			csvField(ts.Label), ts.Runs, ts.Phase2, ts.Confirming, ts.NewSigs, ts.KnownSigs, ts.NewCells)
	}
	b.WriteString("\n# ttfc\nconfirmed,unconfirmed,min,median,max\n")
	fmt.Fprintf(&b, "%d,%d,%d,%s,%d\n", len(r.TTFC.Samples), r.TTFC.Unconfirmed,
		r.TTFC.Min(), num(r.TTFC.Median()), r.TTFC.Max())

	b.WriteString("\n# rounds\nround,runs,new_sigs,known_sigs,new_cells,dedup_rate\n")
	for _, rt := range r.Rounds {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%s\n", rt.Round, rt.Phase2, rt.NewSigs, rt.KnownSigs, rt.NewCells, num(rt.DedupRate()))
	}
	b.WriteString("\n# frontier\ncells,observed,f1,f2,chao1,completeness_pct,abundance_source\n")
	f := r.Frontier
	fmt.Fprintf(&b, "%d,%d,%d,%d,%s,%s,%s\n", f.Cells, f.Observed, f.F1, f.F2,
		num(f.Chao1), num(f.Completeness()), f.AbundanceSource)

	b.WriteString("\n# audit\nround,target,trials,new_sigs,new_cells,flag\n")
	for _, a := range r.Audit {
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%s\n", a.Round, csvField(a.Target), a.Phase2, a.NewSigs, a.NewCells, a.Flag)
	}
	b.WriteString("\n# reconcile\ncheck,log,corpus,match\n")
	for _, c := range r.Checks {
		fmt.Fprintf(&b, "%s,%d,%d,%s\n", csvField(c.Name), c.Log, c.Corpus, yesNo(c.Match()))
	}
	return b.String()
}

// num renders a float deterministically with trailing zeros trimmed (so
// whole numbers read as integers).
func num(f float64) string {
	s := fmt.Sprintf("%.3f", f)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

// pct renders a fraction as a percentage.
func pct(f float64) string { return num(100*f) + "%" }

// roundName renders the Round column: 0 means the log came from a
// non-adaptive campaign, i.e. the whole campaign is one unrounded pool.
func roundName(r int) string {
	if r == 0 {
		return "whole campaign"
	}
	return fmt.Sprintf("%d", r)
}

func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// csvField escapes a value for the CSV output (commas and quotes).
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}
