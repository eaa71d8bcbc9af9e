package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(RunRecord{Label: "demo", Phase: 2, Kind: "race", PairIndex: 1, Trial: 3,
		Seed: 42, RaceCreated: true, Races: 2, StepsToRace: 17, Steps: 90})
	s.Emit(RunRecord{Label: "demo", Phase: 1, PairIndex: -1, StepsToRace: -1})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if rec["label"] != "demo" || rec["seed"] != float64(42) || rec["raceCreated"] != true {
		t.Fatalf("record = %v", rec)
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatalf("line 1 not valid JSON: %v", err)
	}
	if rec["stepsToRace"] != float64(-1) {
		t.Fatalf("sentinel lost: %v", rec["stepsToRace"])
	}
}

// TestReadJSONL: blank lines are skipped, a bad final line is skipped and
// reported torn, and a bad line with another after it is an error naming
// the input and the line.
func TestReadJSONL(t *testing.T) {
	read := func(in string) ([]string, bool, error) {
		var got []string
		torn, err := ReadJSONL(strings.NewReader(in), "x.jsonl", func(line []byte) error {
			var v struct{ N string }
			if err := json.Unmarshal(line, &v); err != nil {
				return err
			}
			got = append(got, v.N)
			return nil
		})
		return got, torn, err
	}
	got, torn, err := read(`{"n":"a"}` + "\n\n  \n" + `{"n":"b"}` + "\r\n")
	if err != nil || torn || strings.Join(got, ",") != "a,b" {
		t.Fatalf("whole input: %v torn=%v err=%v", got, torn, err)
	}
	got, torn, err = read(`{"n":"a"}` + "\n" + `{"n":"b`)
	if err != nil || !torn || strings.Join(got, ",") != "a" {
		t.Fatalf("torn tail: %v torn=%v err=%v", got, torn, err)
	}
	_, _, err = read(`{"n":"a"}` + "\n" + `{"n":` + "\n\n" + `{"n":"c"}` + "\n")
	if err == nil || !strings.HasPrefix(err.Error(), "x.jsonl: line 2: ") {
		t.Fatalf("mid-file damage: err = %v", err)
	}
	_, _, err = read(strings.Repeat("x", 16*1024*1024+1))
	if err == nil || !strings.HasPrefix(err.Error(), "x.jsonl: ") {
		t.Fatalf("oversized line: err = %v", err)
	}
}
