package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"racefuzzer/internal/event"
)

// Offline analysis support: an execution's event stream can be serialized
// and re-analyzed later with any detector, the remedy the paper mentions
// (§1, citing Narayanasamy et al.) for the runtime overhead of precise
// online detection — record cheaply now, analyze offline later. Because
// detectors are pure functions of the event stream, offline results are
// bit-identical to online ones (tested in offline_test.go).

// FormatVersion is the current trace serialization version. Save stamps it
// in a {"v":1} header line; Load rejects traces written by a newer format
// with an "unsupported trace version" error instead of misparsing them.
// internal/flightrec extends this wire format (same event encoding, extra
// record kinds) and shares the version.
const FormatVersion = 1

// Header is the first line of a serialized trace.
type Header struct {
	V int `json:"v"`
}

// WireEvent is the serialized form of one event. Statement labels are
// serialized by name so a recording is valid across processes.
type WireEvent struct {
	Kind   int            `json:"k"`
	Thread int            `json:"t"`
	Stmt   string         `json:"s,omitempty"`
	Loc    int            `json:"m"`
	Access int            `json:"a"`
	Lock   int            `json:"l"`
	Msg    int            `json:"g"`
	Locks  []event.LockID `json:"L,omitempty"`
	Step   int            `json:"n"`
}

// MaxThreads bounds the thread IDs a loaded trace may carry: they lie in
// [0, MaxThreads). The detectors index clocks by thread, so an unchecked ID
// from outside bytes could make them allocate without bound. The scheduler
// numbers threads consecutively from 0, far below this.
const MaxThreads = 1 << 12

// Check reports whether w is an event the detectors can take: a known kind,
// a thread ID in [0, MaxThreads), no negative held lock, and a non-negative
// location on MEM and lock on LOCK/UNLOCK events. Loc and Lock are not
// checked on kinds that ignore them, where older traces carry -1 sentinels.
func (w WireEvent) Check() error {
	k := event.Kind(w.Kind)
	switch {
	case k < 0 || k >= event.KindCount:
		return fmt.Errorf("unknown event kind %d", w.Kind)
	case w.Thread < 0 || w.Thread >= MaxThreads:
		return fmt.Errorf("thread ID %d outside [0, %d)", w.Thread, MaxThreads)
	case k == event.KindMem && w.Loc < 0:
		return fmt.Errorf("negative location ID %d", w.Loc)
	case (k == event.KindLock || k == event.KindUnlock) && w.Lock < 0:
		return fmt.Errorf("negative lock ID %d", w.Lock)
	}
	for _, l := range w.Locks {
		if l < 0 {
			return fmt.Errorf("negative held lock ID %d", int(l))
		}
	}
	return nil
}

// ToWire converts an event to its serialized form.
func ToWire(e event.Event) WireEvent {
	return WireEvent{
		Kind: int(e.Kind), Thread: int(e.Thread), Stmt: e.Stmt.Name(),
		Loc: int(e.Loc), Access: int(e.Access), Lock: int(e.Lock),
		Msg: int(e.Msg), Locks: e.Locks, Step: e.Step,
	}
}

// FromWire converts a serialized event back, re-interning its statement
// label in this process.
func FromWire(w WireEvent) event.Event {
	return event.Event{
		Kind: event.Kind(w.Kind), Thread: event.ThreadID(w.Thread),
		Stmt: event.StmtFor(w.Stmt), Loc: event.MemLoc(w.Loc),
		Access: event.AccessKind(w.Access), Lock: event.LockID(w.Lock),
		Msg: event.MsgID(w.Msg), Locks: w.Locks, Step: w.Step,
	}
}

// CheckVersion validates a loaded header's version against FormatVersion.
func CheckVersion(v int) error {
	if v != FormatVersion {
		return fmt.Errorf("trace: unsupported trace version %d (this build reads version %d)", v, FormatVersion)
	}
	return nil
}

// Save writes the recorder's events as JSON lines, preceded by the format
// version header.
func (r *Recorder) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(Header{V: FormatVersion}); err != nil {
		return fmt.Errorf("trace: save: %w", err)
	}
	for _, e := range r.events {
		if err := enc.Encode(ToWire(e)); err != nil {
			return fmt.Errorf("trace: save: %w", err)
		}
	}
	return nil
}

// Load reads a JSON-lines recording. Traces carry a {"v":N} header line;
// an unsupported version is a graceful error. Headerless streams (written
// before versioning) are accepted as version 1. An event that fails Check is
// an error, so every stream Load returns can be fed to the detectors.
func Load(r io.Reader) ([]event.Event, error) {
	dec := json.NewDecoder(r)
	var out []event.Event
	first := true
	for {
		// Each line decodes into the event shape plus the optional header
		// field; event lines never carry "v", so V != 0 identifies a header.
		var j struct {
			V int `json:"v"`
			WireEvent
		}
		if err := dec.Decode(&j); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: load: %w", err)
		}
		if first && j.V != 0 {
			first = false
			if err := CheckVersion(j.V); err != nil {
				return nil, err
			}
			continue
		}
		first = false
		if err := j.WireEvent.Check(); err != nil {
			return nil, fmt.Errorf("trace: load: event %d: %w", len(out), err)
		}
		out = append(out, FromWire(j.WireEvent))
	}
}

// Feed replays a recorded stream into any set of observers (detectors),
// exactly as if they had observed the execution live.
func Feed(events []event.Event, observers ...interface{ OnEvent(event.Event) }) {
	for _, e := range events {
		for _, o := range observers {
			o.OnEvent(e)
		}
	}
}
