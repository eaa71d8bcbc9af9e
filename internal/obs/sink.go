package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// RunRecord is one structured log record: a single execution of the
// pipeline (one phase-1 observation or one phase-2 directed run). It is the
// JSONL schema written by JSONLSink and the unit analytics.Totals folds.
type RunRecord struct {
	// Seq is the record's monotonic emission index (0-based), stamped by
	// JSONLSink under its lock as records arrive. The campaign pipelines
	// emit in deterministic (phase, pairIndex, trial) order even under a
	// parallel executor — the merge goroutine is single — so Seq is
	// deterministic too; for sinks fed by concurrent emitters it makes the
	// log's total order explicit and the file sortable after the fact.
	Seq int64 `json:"seq"`
	// Label names the campaign (usually the benchmark name).
	Label string `json:"label,omitempty"`
	// Phase is 1 (detector observation) or 2 (directed run).
	Phase int `json:"phase"`
	// Kind names the directed pipeline ("race", "deadlock", "atomicity");
	// empty for plain phase-1 observations.
	Kind string `json:"kind,omitempty"`
	// Pair is the rendered target (statement pair, lock pair, atomic block).
	Pair string `json:"pair,omitempty"`
	// PairIndex is the target's index in the phase-1 report (-1 for phase 1).
	PairIndex int `json:"pairIndex"`
	// Trial is the 0-based trial index within the target's campaign.
	Trial int `json:"trial"`
	// Round is the adaptive campaign's 1-based allocation round (0 outside
	// budgeted campaigns) — the key the offline analytics engine groups
	// budget-audit and dedup-trend tables by.
	Round int `json:"round,omitempty"`
	// Seed replays this exact execution.
	Seed int64 `json:"seed"`
	// RaceCreated reports whether the directed goal was reached (real race /
	// real deadlock / real violation).
	RaceCreated bool `json:"raceCreated"`
	// Races is the number of goal events created in this run.
	Races int `json:"races,omitempty"`
	// StepsToRace is the scheduler step of the first created race (-1 when
	// none).
	StepsToRace int `json:"stepsToRace"`
	// Exceptions lists the distinct model-exception kinds thrown.
	Exceptions []string `json:"exceptions,omitempty"`
	// Deadlock reports whether the run ended in a real deadlock.
	Deadlock bool `json:"deadlock,omitempty"`
	// Aborted reports whether the run hit its step bound.
	Aborted bool `json:"aborted,omitempty"`
	// Steps is the run's scheduler step count.
	Steps int `json:"steps"`
	// DurationNs is the run's wall-clock duration in nanoseconds. It is
	// opt-in (core.Options.Timing, the -timing CLI flag) and zero by
	// default, so the JSONL stream stays bit-identical across repeat runs —
	// the determinism invariant offline analytics and CI golden tests rely
	// on. With timing on, analytics can compute real per-run throughput.
	DurationNs int64 `json:"durationNs,omitempty"`
	// NewCells is the number of interleaving-coverage cells this run added
	// to the campaign corpus (0 without a corpus or when every observed
	// cell was already known). See corpus.Store.IngestCell.
	NewCells int `json:"newCells,omitempty"`
	// Trace is the path of the flight recording auto-captured for this run
	// (set on the first confirming run of a target when capture is enabled).
	Trace string `json:"trace,omitempty"`
	// Perf is the path of the Perfetto timeline exported for this run (set
	// on the first confirming run of a target when Options.PerfDir is set).
	Perf string `json:"perf,omitempty"`
	// Finding classifies a target's first confirming run against the race
	// corpus: "new" (signature never seen before) or "known" (deduplicated
	// re-sighting). Empty on non-confirming runs and corpus-less campaigns.
	Finding string `json:"finding,omitempty"`
}

// Sink consumes run records. The campaign pipelines emit from a single
// merge goroutine in deterministic (phase, pairIndex, trial) order even when
// trials run on a parallel executor, but implementations must tolerate
// concurrent Emit calls anyway (callers may fan several campaigns into one
// sink); the provided sinks all lock internally. Emit must not block on the
// schedule (sinks run between executions, never inside one).
type Sink interface {
	Emit(rec RunRecord)
}

// MultiSink fans records out to several sinks; nil entries are skipped.
// The CLI's -metrics attaches its analytics.Live fold beside the -json run
// log this way.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(rec RunRecord) {
	for _, s := range m {
		if s != nil {
			s.Emit(rec)
		}
	}
}

// Emit sends rec to s if s is non-nil — the nil-safe call instrumentation
// sites use.
func Emit(s Sink, rec RunRecord) {
	if s != nil {
		s.Emit(rec)
	}
}

// JSONLSink writes one JSON object per record, newline-delimited, through a
// buffered writer. Close (or Flush) must be called to drain the buffer.
// The first write error is retained and reported by Err; later emits are
// dropped.
type JSONLSink struct {
	mu        sync.Mutex
	w         *bufio.Writer
	c         io.Closer
	enc       *json.Encoder
	err       error
	seq       int64
	flushEach int64
}

// NewJSONLSink wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// AutoFlush makes the sink flush its buffer after every n records (n <= 0
// disables, the default). Long campaigns set a small n so `tail -f` of the
// run log — and any file-backed live consumer — sees records as they land
// instead of only at Close. Returns the sink for call chaining.
func (s *JSONLSink) AutoFlush(n int) *JSONLSink {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushEach = int64(n)
	return s
}

// Emit implements Sink. It is safe for concurrent use: each record is
// stamped with the sink's next Seq and encoded whole under the lock, so
// parallel emitters can never interleave bytes, and the stream's arrival
// order stays reconstructible from the Seq column.
func (s *JSONLSink) Emit(rec RunRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	rec.Seq = s.seq
	s.seq++
	s.err = s.enc.Encode(rec)
	if s.err == nil && s.flushEach > 0 && s.seq%s.flushEach == 0 {
		s.err = s.w.Flush()
	}
}

// Flush drains the buffer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes and closes the underlying writer (when closable).
func (s *JSONLSink) Close() error {
	ferr := s.Flush()
	s.mu.Lock()
	c := s.c
	s.c = nil
	s.mu.Unlock()
	if c != nil {
		if cerr := c.Close(); ferr == nil {
			return cerr
		}
	}
	return ferr
}

// ReadJSONL reads newline-delimited JSON — a run log, a corpus record file
// — from r and hands each non-blank line, trimmed, to each; a line may be
// at most 16 MiB. A line each rejects is an error only when another
// non-blank line follows it: a rejected final line, the footprint of a
// crash mid-write, is skipped and reported as torn. Errors name the input
// ("<name>: line <n>: ..."); callers prefix their package.
func ReadJSONL(r io.Reader, name string, each func(line []byte) error) (torn bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	var pending error
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if pending != nil {
			// The bad line was not the final one after all.
			return false, pending
		}
		if err := each(line); err != nil {
			// Defer the verdict: if no further line follows, this was a
			// torn final record and is skipped instead of failing.
			pending = fmt.Errorf("%s: line %d: %w", name, lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("%s: %w", name, err)
	}
	return pending != nil, nil
}
