package analytics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReports = flag.Bool("update", false, "rewrite the campaign report goldens under testdata")

// TestReportGolden pins the bytes campaignreport renders from two
// checked-in campaigns:
//
//   - adaptive: `racefuzzer -budget 100 -rounds 3 -seed 7 -corpusdir corpus
//     -json run.jsonl` into a fresh corpus (two of its witnesses kept), so
//     every section renders, rounds and audit flags included, and every
//     reconcile row matches;
//   - logonly: `benchtable -names figure1,figure2,hashset,moldyn -trials 3
//     -timing -json run.jsonl` with a torn final line appended, so the
//     report covers the "whole campaign" round, the log abundance source,
//     the wall clock and the truncation note.
//
// The inputs are data, not a run of today's engine, so an engine change
// does not move these goldens; a report or fold change does.
func TestReportGolden(t *testing.T) {
	for _, name := range []string{"adaptive", "logonly"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", name)
			c, err := LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			r := Analyze(c)
			checkGolden(t, filepath.Join("testdata", name+".md"), Markdown(r))
			checkGolden(t, filepath.Join("testdata", name+".csv"), CSV(r))
		})
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateReports {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(b); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(g) || i < len(w); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Fatalf("%s differs at line %d (rerun with -update if the change is meant):\n got %q\nwant %q", path, i+1, gl, wl)
			}
		}
	}
}
