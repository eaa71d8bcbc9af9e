package flightrec

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"racefuzzer/internal/trace"
)

// Serialization: one JSON object per line. The first line is the header
// (distinguished by its "v" version field); every later line carries a
// "rec" discriminator: "dec" (scheduling decision), "act" (policy action),
// "ev" (event, internal/trace's wire encoding), "end" (run summary).
// Loading a recording written by a newer format version fails with the same
// graceful "unsupported trace version" error as plain traces.

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
	*trace.WireEvent
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
		h.V = trace.FormatVersion
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
// an error (they would silently corrupt divergence checking). A partial
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
	if err := trace.CheckVersion(h.V); err != nil {
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
			err = json.Unmarshal(raw, out.Act)
		case "ev":
			out.Ev = &trace.WireEvent{}
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
