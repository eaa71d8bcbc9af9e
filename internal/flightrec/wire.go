package flightrec

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"racefuzzer/internal/event"
)

// Serialization: one JSON object per line. The first line is the header
// (distinguished by its "v" version field); every later line carries a
// "rec" discriminator: "dec" (scheduling decision), "act" (policy action),
// "ev" (event, WireEvent's encoding), "end" (run summary). Loading a
// recording written by a newer format version fails with a graceful
// "unsupported trace version" error instead of misparsing it.

// FormatVersion is the current recording format version. Save stamps it in
// the header's "v" field; Load rejects any other version.
const FormatVersion = 1

// checkVersion validates a loaded header's version against FormatVersion.
func checkVersion(v int) error {
	if v != FormatVersion {
		return fmt.Errorf("flightrec: unsupported trace version %d (this build reads version %d)", v, FormatVersion)
	}
	return nil
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

// MaxThreads bounds the thread IDs a loaded recording may carry: they lie
// in [0, MaxThreads). The detectors index clocks by thread, so an unchecked
// ID from outside bytes could make them allocate without bound. The
// scheduler numbers threads consecutively from 0, far below this.
const MaxThreads = 1 << 12

// Check reports whether w is an event the detectors can take: a known kind,
// a thread ID in [0, MaxThreads), no negative held lock, and a non-negative
// location on MEM and lock on LOCK/UNLOCK events. Loc and Lock are not
// checked on kinds that ignore them, where recordings carry -1 sentinels.
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

// toWire converts an event to its serialized form.
func toWire(e event.Event) WireEvent {
	return WireEvent{
		Kind: int(e.Kind), Thread: int(e.Thread), Stmt: e.Stmt.Name(),
		Loc: int(e.Loc), Access: int(e.Access), Lock: int(e.Lock),
		Msg: int(e.Msg), Locks: e.Locks, Step: e.Step,
	}
}

// fromWire converts a serialized event back, re-interning its statement
// label in this process.
func fromWire(w WireEvent) event.Event {
	return event.Event{
		Kind: event.Kind(w.Kind), Thread: event.ThreadID(w.Thread),
		Stmt: event.StmtFor(w.Stmt), Loc: event.MemLoc(w.Loc),
		Access: event.AccessKind(w.Access), Lock: event.LockID(w.Lock),
		Msg: event.MsgID(w.Msg), Locks: w.Locks, Step: w.Step,
	}
}

type decLine struct {
	Rec string `json:"rec"`
	*Decision
}

type actLine struct {
	Rec string `json:"rec"`
	*Action
}

type evLine struct {
	Rec string `json:"rec"`
	*WireEvent
}

type endLine struct {
	Rec string `json:"rec"`
	*Summary
}

// marshalRecord renders one record as its JSONL line (no trailing newline).
func marshalRecord(r Record) ([]byte, error) {
	switch {
	case r.Dec != nil:
		return json.Marshal(decLine{Rec: "dec", Decision: r.Dec})
	case r.Act != nil:
		return json.Marshal(actLine{Rec: "act", Action: r.Act})
	case r.Ev != nil:
		return json.Marshal(evLine{Rec: "ev", WireEvent: r.Ev})
	case r.End != nil:
		return json.Marshal(endLine{Rec: "end", Summary: r.End})
	}
	return nil, fmt.Errorf("flightrec: empty record")
}

// String renders the record for divergence reports and debugging: the JSONL
// line itself, which is exact and compact.
func (r Record) String() string {
	b, err := marshalRecord(r)
	if err != nil {
		return "(empty record)"
	}
	return string(b)
}

// Save writes the recording as versioned JSONL.
func (rec *Recording) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := rec.Header
	if h.V == 0 {
		h.V = FormatVersion
	}
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("flightrec: save: %w", err)
	}
	for _, r := range rec.Records {
		b, err := marshalRecord(r)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("flightrec: save: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("flightrec: save: %w", err)
	}
	return nil
}

// SaveFile writes the recording to path, creating parent directories.
func (rec *Recording) SaveFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("flightrec: save: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flightrec: save: %w", err)
	}
	if err := rec.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads a recording written by Save. An unsupported format version is
// reported gracefully; unknown record kinds within a supported version are
// an error (they would silently corrupt divergence checking), and so are
// events failing WireEvent.Check and actions by a thread outside
// [0, MaxThreads). A partial
// FINAL line — the footprint of a crash mid-write — is skipped and flagged
// via Recording.Truncated rather than failing the whole load: every record
// before it was written and synced whole, so the prefix is trustworthy.
func Load(r io.Reader) (*Recording, error) {
	dec := json.NewDecoder(r)
	var h Header
	if err := dec.Decode(&h); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("flightrec: load: empty recording")
		}
		return nil, fmt.Errorf("flightrec: load: header: %w", err)
	}
	if err := checkVersion(h.V); err != nil {
		return nil, err
	}
	rec := &Recording{Header: h}
	for i := 1; ; i++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return rec, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				// The stream ended inside a JSON value: a torn final line.
				rec.Truncated = true
				return rec, nil
			}
			return nil, fmt.Errorf("flightrec: load: line %d: %w", i+1, err)
		}
		var tag struct {
			Rec string `json:"rec"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("flightrec: load: line %d: %w", i+1, err)
		}
		var out Record
		var err error
		switch tag.Rec {
		case "dec":
			out.Dec = &Decision{}
			err = json.Unmarshal(raw, out.Dec)
		case "act":
			out.Act = &Action{}
			if err = json.Unmarshal(raw, out.Act); err == nil && (out.Act.Thread < 0 || out.Act.Thread >= MaxThreads) {
				// Explain gives the acting thread a timeline column.
				err = fmt.Errorf("action thread ID %d outside [0, %d)", out.Act.Thread, MaxThreads)
			}
		case "ev":
			out.Ev = &WireEvent{}
			if err = json.Unmarshal(raw, out.Ev); err == nil {
				err = out.Ev.Check()
			}
		case "end":
			out.End = &Summary{}
			err = json.Unmarshal(raw, out.End)
		default:
			return nil, fmt.Errorf("flightrec: load: line %d: unknown record kind %q", i+1, tag.Rec)
		}
		if err != nil {
			return nil, fmt.Errorf("flightrec: load: line %d: %w", i+1, err)
		}
		rec.Records = append(rec.Records, out)
	}
}

// LoadFile reads a recording from path.
func LoadFile(path string) (*Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("flightrec: load: %w", err)
	}
	defer f.Close()
	return Load(f)
}
