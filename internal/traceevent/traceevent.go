// Package traceevent holds the Chrome trace-event JSON primitives shared by
// every Perfetto exporter in the repo (schedprof's per-trial timelines and
// campaignbench's span ledger). The format is the JSON-object form
// of the Chrome trace-event spec, which Perfetto and chrome://tracing load
// directly: a traceEvents array of "X" complete slices and "M" metadata
// records, timestamps and durations in microseconds.
//
// The package is deliberately tiny and deterministic: callers build []Event
// in a stable order and Write emits them with a fixed encoder configuration,
// so exporters can pin their output byte-for-byte in golden tests.
package traceevent

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// Event is one Chrome trace-event object ("X" complete slices and "M"
// metadata). Timestamps and durations are microseconds, per the format.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// File is the JSON-object form of the Chrome trace-event format, the shape
// Perfetto and chrome://tracing load directly.
type File struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// UsPerNs converts nanosecond fields into the format's microsecond floats.
const UsPerNs = 1e-3

// Meta builds an "M" metadata record (process_name, thread_name,
// thread_sort_index, ...) for the given pid/tid.
func Meta(name string, pid, tid int, args map[string]any) Event {
	return Event{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: args}
}

// Slice builds an "X" complete slice from nanosecond start/duration.
func Slice(name, cat string, pid, tid int, startNs, durNs int64, args map[string]any) Event {
	return Event{
		Name: name, Cat: cat, Ph: "X",
		Ts: float64(startNs) * UsPerNs, Dur: float64(durNs) * UsPerNs,
		Pid: pid, Tid: tid, Args: args,
	}
}

// Write emits the events as one trace file. The encoder configuration is
// fixed (single-space indent, "ms" display unit) so output is byte-stable
// for identical input.
func Write(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(File{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// SaveFile writes the events to path, creating parent directories (so an
// export directory that does not exist yet just works).
func SaveFile(path string, events []Event) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
