package flightrec

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"racefuzzer/internal/bench"
	"racefuzzer/internal/hb"
	"racefuzzer/internal/hybrid"
	"racefuzzer/internal/sched"
)

// record runs a benchmark program under the random policy with a Recorder
// attached and returns the finished recording.
func record(t testing.TB, seed int64) *Recording {
	t.Helper()
	r := NewRecorder(Header{Label: "figure1", Policy: "random", Seed: seed})
	res := sched.Run(bench.Figure1(), sched.Config{
		Seed: seed, Policy: sched.NewRandomPolicy(), Observers: []sched.Observer{r},
	})
	r.Finish(res)
	return r.Recording()
}

func TestRecorderCapturesDecisionsAndEvents(t *testing.T) {
	rec := record(t, 3)
	decs := rec.Decisions()
	evs := rec.Events()
	if len(decs) == 0 || len(evs) == 0 {
		t.Fatalf("decisions=%d events=%d", len(decs), len(evs))
	}
	// Decision rounds count up from 0; RNG draw counts never decrease.
	var draws uint64
	for i, d := range decs {
		if d.Round != i {
			t.Fatalf("decision %d has round %d", i, d.Round)
		}
		if d.Draws < draws {
			t.Fatalf("decision %d: draw count went backwards (%d -> %d)", i, draws, d.Draws)
		}
		draws = d.Draws
		if len(d.Enabled) == 0 {
			t.Fatalf("decision %d has empty enabled set", i)
		}
	}
	end := rec.Summary()
	if end.Steps == 0 || end.Steps != evs[len(evs)-1].Step {
		t.Fatalf("summary steps %d, last event step %d", end.Steps, evs[len(evs)-1].Step)
	}
}

func TestSaveLoadRoundTripIsExact(t *testing.T) {
	rec := record(t, 9)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	if !strings.HasPrefix(saved, `{"v":1`) {
		t.Fatalf("recording does not start with a version header: %q", saved[:40])
	}
	loaded, err := Load(strings.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if d := Diverge(loaded, rec); d != nil {
		t.Fatalf("round trip diverged: %v", d)
	}
	// Saving the loaded recording reproduces the bytes exactly.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != saved {
		t.Fatal("save/load/save is not byte-identical")
	}
}

// TestOfflineEqualsOnline: the detectors are pure functions of the event
// stream, so feeding a saved and reloaded recording's events to fresh
// detectors must give the same pairs as running them online.
func TestOfflineEqualsOnline(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rec := NewRecorder(Header{Label: "figure1", Seed: seed})
		onHy, onHb := hybrid.New(), hb.New()
		res := sched.Run(bench.Figure1(), sched.Config{
			Seed: seed, Observers: []sched.Observer{rec, onHy, onHb},
		})
		rec.Finish(res)

		var buf bytes.Buffer
		if err := rec.Recording().Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		offHy, offHb := hybrid.New(), hb.New()
		for _, e := range loaded.Events() {
			offHy.OnEvent(e)
			offHb.OnEvent(e)
		}

		if !slices.Equal(onHy.Pairs(), offHy.Pairs()) {
			t.Fatalf("seed %d: hybrid offline %v != online %v", seed, offHy.Pairs(), onHy.Pairs())
		}
		if !slices.Equal(onHb.Pairs(), offHb.Pairs()) {
			t.Fatalf("seed %d: hb offline %v != online %v", seed, offHb.Pairs(), onHb.Pairs())
		}
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	rec := record(t, 4)
	path := filepath.Join(t.TempDir(), "nested", "dir", "run.trace.jsonl")
	if err := rec.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diverge(loaded, rec); d != nil {
		t.Fatalf("file round trip diverged: %v", d)
	}
}

func TestLoadRejectsUnsupportedVersion(t *testing.T) {
	in := `{"v":99,"seed":1}` + "\n"
	if _, err := Load(strings.NewReader(in)); err == nil ||
		!strings.Contains(err.Error(), "unsupported trace version 99") {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadRejectsUnknownRecordKind(t *testing.T) {
	in := `{"v":1,"seed":1}` + "\n" + `{"rec":"mystery"}` + "\n"
	if _, err := Load(strings.NewReader(in)); err == nil ||
		!strings.Contains(err.Error(), `unknown record kind "mystery"`) {
		t.Fatalf("err = %v", err)
	}
}

func TestLoadRejectsOutOfRangeEvent(t *testing.T) {
	in := `{"v":1,"seed":1}` + "\n" + `{"rec":"ev","k":0,"t":-1,"m":0}` + "\n"
	if _, err := Load(strings.NewReader(in)); err == nil ||
		!strings.Contains(err.Error(), "line 2: thread ID -1") {
		t.Fatalf("err = %v", err)
	}
	for _, line := range []string{
		`{"rec":"act","act":"race","n":1,"t":-5,"m":1,"l":-1}`,
		`{"rec":"act","act":"postpone","n":1,"t":4096,"m":1,"l":-1}`,
	} {
		if rec, err := Load(strings.NewReader(`{"v":1,"seed":1}` + "\n" + line + "\n")); err == nil {
			t.Errorf("%s accepted as %v", line, rec.Actions())
		}
	}
}

func TestLoadRejectsEmptyInput(t *testing.T) {
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestExplainWithoutHitSaysSo(t *testing.T) {
	rec := record(t, 3) // random policy: no directed actions recorded
	out := rec.Explain()
	if !strings.Contains(out, "no race, violation or deadlock") {
		t.Fatalf("explanation:\n%s", out)
	}
	if !strings.Contains(out, "figure1") || !strings.Contains(out, "policy=random") {
		t.Fatalf("header not rendered:\n%s", out)
	}
}

func TestActionKindStringsAreStable(t *testing.T) {
	// The wire format persists these strings; renaming one silently breaks
	// old recordings, so pin them.
	want := map[sched.ActionKind]string{
		sched.ActPostpone:      "postpone",
		sched.ActResume:        "resume",
		sched.ActLivelockBreak: "livelock-break",
		sched.ActRace:          "race",
		sched.ActViolation:     "violation",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%v renders %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestFlightRecordingSharesTraceVersion(t *testing.T) {
	rec := record(t, 1)
	if rec.Header.V != FormatVersion {
		t.Fatalf("recording version %d, format version %d", rec.Header.V, FormatVersion)
	}
}

func TestLoadSkipsTruncatedFinalLine(t *testing.T) {
	rec := record(t, 11)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.String()

	// Cut the serialized recording mid-way through its final line — the
	// footprint of a crash during the last write.
	cut := strings.LastIndex(strings.TrimRight(full, "\n"), "\n") + 1
	torn := full[:cut+10]

	loaded, err := Load(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn final line should load: %v", err)
	}
	if !loaded.Truncated {
		t.Fatal("Truncated flag not set on torn recording")
	}
	if want := len(rec.Records) - 1; len(loaded.Records) != want {
		t.Fatalf("loaded %d records, want the %d intact ones", len(loaded.Records), want)
	}
	for i, r := range loaded.Records {
		if r.String() != rec.Records[i].String() {
			t.Fatalf("record %d differs after truncated load", i)
		}
	}

	// An intact recording must not be flagged.
	whole, err := Load(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if whole.Truncated {
		t.Fatal("intact recording flagged as truncated")
	}

	// Corruption that is not a torn tail (garbage mid-stream) still fails.
	lines := strings.Split(strings.TrimRight(full, "\n"), "\n")
	lines[1] = "{not json"
	if _, err := Load(strings.NewReader(strings.Join(lines, "\n") + "\n")); err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
}

// TestLoadToleratesCRLF: a recording whose line endings became \r\n in
// transit (git autocrlf, a Windows fleet worker) must load identically to
// the LF original — \r is JSON whitespace, so the decoder's tolerance is
// pinned here against a rewrite to a line-oriented loader.
func TestLoadToleratesCRLF(t *testing.T) {
	rec := record(t, 9)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	crlf := strings.ReplaceAll(buf.String(), "\n", "\r\n")
	loaded, err := Load(strings.NewReader(crlf))
	if err != nil {
		t.Fatalf("CRLF recording rejected: %v", err)
	}
	if loaded.Truncated {
		t.Fatal("CRLF recording flagged truncated")
	}
	if d := Diverge(loaded, rec); d != nil {
		t.Fatalf("CRLF recording diverged from the LF original: %v", d)
	}
}

// FuzzLoad feeds arbitrary bytes to the recording decoder: every input must
// load or return an error, an accepted recording's events must be safe to
// feed to the detectors (unsorted held-lock lists included), it must
// explain without panicking, and it must save and reload to the same bytes.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := record(f, 3).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"v":1,"seed":2}` + "\n" + `{"rec":"dec","i":0,"n":0,"en":[0],"g":[0],"d":1}` +
		"\n" + `{"rec":"end","steps":`))
	f.Add([]byte(`{"v":1,"seed":0}` + "\n" +
		`{"rec":"ev","k":0,"t":1,"s":"fz:a","m":2,"a":1,"L":[3,1,3]}` + "\n" +
		`{"rec":"ev","k":0,"t":2,"s":"fz:b","m":2,"a":0,"L":[2]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		hy, h := hybrid.New(), hb.New()
		for _, e := range rec.Events() {
			hy.OnEvent(e)
			h.OnEvent(e)
		}
		rec.Explain()
		var saved bytes.Buffer
		if err := rec.Save(&saved); err != nil {
			t.Fatalf("accepted recording does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved recording does not reload: %v\n%s", err, saved.Bytes())
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil {
			t.Fatalf("reloaded recording does not save: %v", err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("save/load/save changed the bytes:\n%s\n--- then:\n%s", saved.Bytes(), resaved.Bytes())
		}
	})
}
