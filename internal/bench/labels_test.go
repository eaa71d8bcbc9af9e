package bench_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/event"
	"racefuzzer/internal/progen"
	"racefuzzer/internal/rng"
	"racefuzzer/internal/sched"
)

var updateLabels = flag.Bool("update", false, "rewrite testdata/labels.golden")

// vocabulary is the label report of every registry model and one progen
// program. TestMain builds it before any test runs, so statement interning
// starts from the table package initialization left and the report's
// first-use order is the one a fresh process sees.
var vocabulary []byte

func TestMain(m *testing.M) {
	vocabulary = labelVocabulary()
	os.Exit(m.Run())
}

// TestLabelVocabulary pins the statement label vocabulary of the models:
// per program, the sorted set of labels its seed 1–3 runs use, the order in
// which a fresh process interns them, and a SHA-256 of each run's stream of
// granted ops and events (thread, kind, label, location). A label that
// moves to another line, two swapped sites or a changed interning order
// fails here, not only in the goldens that happen to cover a pair.
func TestLabelVocabulary(t *testing.T) {
	path := filepath.Join("testdata", "labels.golden")
	if *updateLabels {
		if err := os.WriteFile(path, vocabulary, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(vocabulary, want) {
		return
	}
	got, exp := strings.Split(string(vocabulary), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Fatalf("label vocabulary differs from %s at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}

func labelVocabulary() []byte {
	var b bytes.Buffer
	for _, bm := range bench.All() {
		writeVocabulary(&b, bm.Name, bm.New, bm.MaxSteps)
	}
	p := progen.Generate(1, progen.Config{})
	writeVocabulary(&b, "progen-1", func() bench.Program { return p.Body(nil) }, 0)
	return b.Bytes()
}

// writeVocabulary runs newProg at seeds 1–3 and appends its section of the
// report. The statements interned between two marks are exactly the labels
// the runs used for the first time in this process, in ID order.
func writeVocabulary(b *bytes.Buffer, name string, newProg func() bench.Program, maxSteps int) {
	first := event.StmtFor("labels.golden: before " + name)
	labels := map[string]bool{}
	var sums []string
	for seed := int64(1); seed <= 3; seed++ {
		rec := &labelRecorder{inner: sched.NewRandomPolicy(), labels: labels, h: sha256.New()}
		sched.Run(newProg(), sched.Config{Seed: seed, Policy: rec, Observers: []sched.Observer{rec}, MaxSteps: maxSteps})
		sums = append(sums, fmt.Sprintf("seed %d %x", seed, rec.h.Sum(nil)))
	}
	last := event.StmtFor("labels.golden: after " + name)

	fmt.Fprintf(b, "# %s\n", name)
	sorted := make([]string, 0, len(labels))
	for l := range labels {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	for _, l := range sorted {
		fmt.Fprintf(b, "label %s\n", l)
	}
	for s := first + 1; s < last; s++ {
		fmt.Fprintf(b, "interned %s\n", s.Name())
	}
	for _, s := range sums {
		fmt.Fprintln(b, s)
	}
}

// labelRecorder wraps the random policy: it collects the label of every
// granted op and hashes the granted ops and the events in stream order.
type labelRecorder struct {
	inner  sched.Policy
	labels map[string]bool
	h      hash.Hash
}

func (r *labelRecorder) Name() string { return r.inner.Name() }

func (r *labelRecorder) Step(v *sched.View, rnd *rng.Rand) sched.Decision {
	d := r.inner.Step(v, rnd)
	for _, g := range d.Grants {
		op := v.Op(g)
		if name := op.Stmt.Name(); name != "" {
			r.labels[name] = true
		}
		fmt.Fprintf(r.h, "op %d %d %s %d\n", g, op.Kind, op.Stmt.Name(), op.Loc)
	}
	return d
}

func (r *labelRecorder) OnEvent(e event.Event) {
	fmt.Fprintf(r.h, "ev %d %d %s %d\n", e.Thread, e.Kind, e.Stmt.Name(), e.Loc)
}
