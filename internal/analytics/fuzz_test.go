package analytics

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"racefuzzer/internal/obs"
)

// FuzzLoadLog feeds arbitrary bytes to the run-log decoder: every input
// must load or return an error, and an accepted log must analyze and render
// as markdown and CSV without panicking.
func FuzzLoadLog(f *testing.F) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf).Header(obs.CollectProvenance("racefuzzer", "campaign",
		map[string]string{"seed": "7", "budget": "40", "rounds": "2"}))
	sink.Emit(obs.RunRecord{Label: "figure2", Phase: 1, Seed: 7, Steps: 40})
	sink.Emit(obs.RunRecord{Label: "figure2", Phase: 2, Kind: "race", Pair: "(a, b)", Round: 1,
		Seed: 8, RaceCreated: true, Races: 1, StepsToRace: 12, Steps: 30, Finding: "new", NewCells: 2})
	sink.Emit(obs.RunRecord{Label: "figure2", Phase: 2, Kind: "race", Pair: "(a, b)", Trial: 1, Round: 2,
		Seed: 9, RaceCreated: true, Races: 1, StepsToRace: 9, Steps: 28, Finding: "known"})
	sink.Emit(obs.RunRecord{Label: "figure1", Phase: 2, Kind: "deadlock", Pair: "(L1, L2)", PairIndex: 1,
		Round: 1, Seed: 10, Deadlock: true, Steps: 17, Exceptions: []string{"IllegalMonitorState"}})
	if err := sink.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(append(append([]byte(nil), buf.Bytes()...), `{"seq":4,"label":"fig`...))
	path := filepath.Join(f.TempDir(), "run.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Load(Source{Log: path})
		if err != nil {
			return
		}
		r := Analyze(c)
		Markdown(r)
		CSV(r)
	})
}
