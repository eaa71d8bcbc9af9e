package flightrec

import (
	"encoding/json"
	"fmt"
)

// Replay-divergence detection: the paper's replay story is that a seed
// fully determines the schedule (§2.2), so a re-run of a recorded
// (seed, target) must reproduce the recording exactly. Diverge checks that
// claim record by record — decisions (including RNG draw positions),
// policy actions, events, and the end summary — and reports the first
// mismatch instead of a vague "results differ". A divergence means
// nondeterminism leaked into the scheduler (map iteration, wall-clock
// coupling, shared mutable state across runs), which is precisely the class
// of bug that silently invalidates every probability the pipelines report.

// Divergence describes the first point at which two recordings disagree.
type Divergence struct {
	// Index is the 0-based record index of the first mismatch; -1 means the
	// headers themselves disagree.
	Index int
	// Step is the scheduler step of the mismatching record (-1 when not
	// applicable, e.g. header mismatch or a missing record).
	Step int
	// Got and Want render the divergent records (the literal trace lines);
	// "<end of recording>" marks a recording that ran out first.
	Got, Want string
}

func (d *Divergence) String() string {
	if d == nil {
		return "recordings identical"
	}
	if d.Index < 0 {
		return fmt.Sprintf("replay divergence: headers differ:\n  got:  %s\n  want: %s", d.Got, d.Want)
	}
	return fmt.Sprintf("replay divergence at record %d (step %d):\n  got:  %s\n  want: %s",
		d.Index, d.Step, d.Got, d.Want)
}

const endOfRecording = "<end of recording>"

// Diverge compares a fresh recording (got) against a reference (want) and
// returns the first divergence, or nil when the recordings are identical.
// Comparison is on the serialized form, so anything the trace persists —
// enabled sets, grant order, RNG draw counts, action operands, event
// payloads — participates.
func Diverge(got, want *Recording) *Divergence {
	gh, _ := json.Marshal(got.Header)
	wh, _ := json.Marshal(want.Header)
	if string(gh) != string(wh) {
		return &Divergence{Index: -1, Step: -1, Got: string(gh), Want: string(wh)}
	}
	n := len(got.Records)
	if len(want.Records) > n {
		n = len(want.Records)
	}
	for i := 0; i < n; i++ {
		var g, w string
		step := -1
		if i < len(got.Records) {
			g = got.Records[i].String()
			step = got.Records[i].Step()
		} else {
			g = endOfRecording
		}
		if i < len(want.Records) {
			w = want.Records[i].String()
			if step < 0 {
				step = want.Records[i].Step()
			}
		} else {
			w = endOfRecording
		}
		if g != w {
			return &Divergence{Index: i, Step: step, Got: g, Want: w}
		}
	}
	return nil
}
