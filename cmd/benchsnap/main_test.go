package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestExitStatus: 0 when every workload is within the bound, 1 when one is
// over it, 2 when the snapshots cannot be compared.
func TestExitStatus(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_campaign.json")
	// variant writes a copy of the baseline with edit applied to its first run.
	variant := func(edit func(run map[string]any)) string {
		data, err := os.ReadFile(baseline)
		if err != nil {
			t.Fatal(err)
		}
		var s map[string]any
		if err := json.Unmarshal(data, &s); err != nil {
			t.Fatal(err)
		}
		edit(s["runs"].([]any)[0].(map[string]any))
		if data, err = json.Marshal(s); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "cur.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	overBound := variant(func(run map[string]any) {
		for _, m := range run["metrics"].([]any) {
			if m := m.(map[string]any); m["name"] == "allocs_per_trial" {
				m["value"] = m["value"].(float64) * 1.06
			}
		}
	})
	otherWidth := variant(func(run map[string]any) { run["width"] = run["width"].(float64) + 1 })
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"baseline against itself", []string{baseline, baseline}, 0},
		{"over the bound", []string{baseline, overBound}, 1},
		{"other width", []string{baseline, otherWidth}, 2},
		{"one argument", []string{baseline}, 2},
		{"unreadable", []string{baseline, filepath.Join(t.TempDir(), "none.json")}, 2},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}
