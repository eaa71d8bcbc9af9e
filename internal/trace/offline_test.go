package trace

import (
	"bytes"
	"strings"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/event"
	"racefuzzer/internal/hb"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/sched"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	rec := New(0)
	res := sched.Run(bench.Figure1(), sched.Config{Seed: 5, Observers: []sched.Observer{rec}})
	if res.Steps == 0 {
		t.Fatal("no steps")
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(rec.Events()) {
		t.Fatalf("loaded %d events, recorded %d", len(loaded), len(rec.Events()))
	}
	for i, e := range rec.Events() {
		if loaded[i].String() != e.String() {
			t.Fatalf("event %d mismatch:\n  %v\n  %v", i, e, loaded[i])
		}
	}
}

// TestOfflineEqualsOnline: the detectors are pure functions of the event
// stream, so running them offline on a recording must give the same pairs
// as running them online.
func TestOfflineEqualsOnline(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rec := New(0)
		onHy := hybrid.New()
		onHb := hb.New()
		sched.Run(bench.Figure1(), sched.Config{
			Seed: seed, Observers: []sched.Observer{rec, onHy, onHb},
		})

		var buf bytes.Buffer
		if err := rec.Save(&buf); err != nil {
			t.Fatal(err)
		}
		events, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		offHy := hybrid.New()
		offHb := hb.New()
		Feed(events, offHy, offHb)

		if !samePairs(onHy.Pairs(), offHy.Pairs()) {
			t.Fatalf("seed %d: hybrid offline %v != online %v", seed, offHy.Pairs(), onHy.Pairs())
		}
		if !samePairs(onHb.Pairs(), offHb.Pairs()) {
			t.Fatalf("seed %d: hb offline %v != online %v", seed, offHb.Pairs(), onHb.Pairs())
		}
	}
}

func samePairs(a, b []event.StmtPair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("no error on garbage input")
	}
}

func TestSaveWritesVersionHeaderFirst(t *testing.T) {
	rec := New(0)
	sched.Run(bench.Figure1(), sched.Config{Seed: 5, Observers: []sched.Observer{rec}})
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	first, _, found := bytes.Cut(buf.Bytes(), []byte("\n"))
	if !found || string(first) != `{"v":1}` {
		t.Fatalf("first line = %q, want {\"v\":1}", first)
	}
}

func TestLoadRejectsUnsupportedVersion(t *testing.T) {
	_, err := Load(bytes.NewBufferString(`{"v":99}` + "\n"))
	if err == nil {
		t.Fatal("version 99 accepted")
	}
	if !strings.Contains(err.Error(), "unsupported trace version 99") {
		t.Fatalf("unhelpful version error: %v", err)
	}
}

func TestLoadAcceptsLegacyHeaderlessTrace(t *testing.T) {
	// Streams written before versioning start directly with an event line.
	in := `{"k":0,"t":1,"s":"legacy:1","m":2,"a":1,"l":-1,"g":0,"n":3}` + "\n"
	events, err := Load(bytes.NewBufferString(in))
	if err != nil || len(events) != 1 {
		t.Fatalf("events=%v err=%v", events, err)
	}
	if events[0].Stmt.Name() != "legacy:1" || events[0].Step != 3 {
		t.Fatalf("event = %v", events[0])
	}
}

func TestSaveEmptyRecording(t *testing.T) {
	var buf bytes.Buffer
	if err := New(0).Save(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := Load(&buf)
	if err != nil || len(events) != 0 {
		t.Fatalf("events=%v err=%v", events, err)
	}
}

func TestLoadRejectsOutOfRangeIDs(t *testing.T) {
	for _, line := range []string{
		`{"k":0,"t":-1,"m":0}`,
		`{"k":1,"t":4096,"g":1}`,
		`{"k":0,"t":0,"m":-2}`,
		`{"k":3,"t":0,"l":-1}`,
		`{"k":0,"t":0,"m":1,"L":[2,-3]}`,
		`{"k":9,"t":0}`,
	} {
		if evs, err := Load(strings.NewReader(`{"v":1}` + "\n" + line + "\n")); err == nil {
			t.Errorf("%s accepted as %v", line, evs)
		}
	}
}

// FuzzLoad: Load reads outside bytes, so it must return events or an error
// and never panic, and every stream it accepts must be safe to feed to the
// detectors, unsorted held-lock lists included.
func FuzzLoad(f *testing.F) {
	rec := New(0)
	sched.Run(bench.Figure1(), sched.Config{Seed: 5, Observers: []sched.Observer{rec}})
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"k":0,"t":1,"s":"fz:a","m":2,"a":1,"L":[3,1,3]}` + "\n" +
		`{"k":0,"t":2,"s":"fz:b","m":2,"a":0,"L":[2]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		Feed(events, hybrid.New(), hb.New())
	})
}
