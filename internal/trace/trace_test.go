// Package trace_test pins the event stream a flight recording carries: it
// saves and loads event for event, Load rejects a malformed or out-of-range
// event, and the -trace dump shows the most recent events behind a count of
// the elided ones. The format itself lives in internal/flightrec; this
// directory holds tests only.
package trace_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/event"
	"racefuzzer/internal/flightrec"
	"racefuzzer/internal/hb"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/sched"
)

func mem(t event.ThreadID, loc event.MemLoc) event.Event {
	return event.Event{Kind: event.KindMem, Thread: t, Loc: loc, Stmt: event.StmtFor("tr:s"), Step: int(loc)}
}

// memRecording is a recording of n memory events, one per location.
func memRecording(n int) *flightrec.Recording {
	r := flightrec.NewRecorder(flightrec.Header{Label: "mem"})
	for i := 0; i < n; i++ {
		r.OnEvent(mem(0, event.MemLoc(i)))
	}
	return r.Recording()
}

// recorded runs figure1 under seed 5 with a recorder attached and returns
// the saved recording.
func recorded(t testing.TB) (*flightrec.Recording, []byte) {
	t.Helper()
	r := flightrec.NewRecorder(flightrec.Header{Label: "figure1", Seed: 5})
	res := sched.Run(bench.Figure1(), sched.Config{Seed: 5, Observers: []sched.Observer{r}})
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
	r.Finish(res)
	var buf bytes.Buffer
	if err := r.Recording().Save(&buf); err != nil {
		t.Fatal(err)
	}
	return r.Recording(), buf.Bytes()
}

func TestUnboundedRecording(t *testing.T) {
	rec := memRecording(100)
	if n := len(rec.Events()); n != 100 {
		t.Fatalf("recorded %d of 100 events", n)
	}
	dump := rec.Dump(100)
	if strings.Contains(dump, "elided") || strings.Count(dump, "\n") != 100 || !strings.Contains(dump, "MEM") {
		t.Fatalf("dump of all 100 events:\n%s", dump)
	}
}

func TestRingKeepsMostRecent(t *testing.T) {
	rec := memRecording(25)
	evs := rec.Events()
	lines := strings.Split(strings.TrimSuffix(rec.Dump(10), "\n"), "\n")
	if len(lines) != 11 || lines[0] != "... 15 earlier events elided ..." {
		t.Fatalf("dump of 25 events keeping 10:\n%s", strings.Join(lines, "\n"))
	}
	if evs[15].Loc != 15 || lines[1] != evs[15].String() || lines[10] != evs[24].String() {
		t.Fatalf("dump kept the wrong events: first %q, last %q", lines[1], lines[10])
	}
	if got := memRecording(0).Dump(10); got != "" {
		t.Fatalf("dump of no events = %q", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rec, saved := recorded(t)
	loaded, err := flightrec.Load(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	got, want := loaded.Events(), rec.Events()
	if len(got) != len(want) {
		t.Fatalf("loaded %d events, recorded %d", len(got), len(want))
	}
	for i, e := range want {
		if got[i].String() != e.String() {
			t.Fatalf("event %d mismatch:\n  %v\n  %v", i, e, got[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := flightrec.Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("no error on garbage input")
	}
}

func TestSaveWritesVersionHeaderFirst(t *testing.T) {
	_, saved := recorded(t)
	first, _, found := bytes.Cut(saved, []byte("\n"))
	if !found || !bytes.HasPrefix(first, []byte(`{"v":1,`)) {
		t.Fatalf("first line = %q, want a {\"v\":1,...} header", first)
	}
	var h flightrec.Header
	if err := json.Unmarshal(first, &h); err != nil || h.V != flightrec.FormatVersion || h.Label != "figure1" || h.Seed != 5 {
		t.Fatalf("header %+v, err %v", h, err)
	}
}

func TestLoadRejectsUnsupportedVersion(t *testing.T) {
	_, err := flightrec.Load(strings.NewReader(`{"v":99}` + "\n"))
	if err == nil {
		t.Fatal("version 99 accepted")
	}
	if !strings.Contains(err.Error(), "unsupported trace version 99") {
		t.Fatalf("unhelpful version error: %v", err)
	}
}

func TestSaveEmptyRecording(t *testing.T) {
	var buf bytes.Buffer
	if err := memRecording(0).Save(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := flightrec.Load(&buf)
	if err != nil || len(rec.Events()) != 0 {
		t.Fatalf("rec=%v err=%v", rec, err)
	}
}

func TestLoadRejectsOutOfRangeIDs(t *testing.T) {
	for _, line := range []string{
		`{"rec":"ev","k":0,"t":-1,"m":0}`,
		`{"rec":"ev","k":1,"t":4096,"g":1}`,
		`{"rec":"ev","k":0,"t":0,"m":-2}`,
		`{"rec":"ev","k":3,"t":0,"l":-1}`,
		`{"rec":"ev","k":0,"t":0,"m":1,"L":[2,-3]}`,
		`{"rec":"ev","k":9,"t":0}`,
	} {
		if rec, err := flightrec.Load(strings.NewReader(`{"v":1,"seed":1}` + "\n" + line + "\n")); err == nil {
			t.Errorf("%s accepted as %v", line, rec.Events())
		}
	}
}

// FuzzLoad: a recording's event lines are outside bytes, so behind a valid
// header Load must return a recording or an error and never panic, and
// every event stream it accepts must be safe to feed to the detectors,
// unsorted held-lock lists included.
func FuzzLoad(f *testing.F) {
	_, saved := recorded(f)
	header, body, _ := bytes.Cut(saved, []byte("\n"))
	header = append(header, '\n')
	f.Add(body)
	f.Add([]byte(`{"rec":"ev","k":0,"t":1,"s":"fz:a","m":2,"a":1,"L":[3,1,3]}` + "\n" +
		`{"rec":"ev","k":0,"t":2,"s":"fz:b","m":2,"a":0,"L":[2]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := flightrec.Load(io.MultiReader(bytes.NewReader(header), bytes.NewReader(data)))
		if err != nil {
			return
		}
		hy, h := hybrid.New(), hb.New()
		for _, e := range rec.Events() {
			hy.OnEvent(e)
			h.OnEvent(e)
		}
	})
}
