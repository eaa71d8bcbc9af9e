package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"racefuzzer/internal/corpus"
	"racefuzzer/internal/harness"
)

// post serves one POST through c's control-plane mux.
func post(c *Coordinator, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	c.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

// leasedResultBody registers a worker with c, leases it one real unit,
// executes the unit and returns the ResultRequest the worker would post.
func leasedResultBody(f *testing.F, c *Coordinator) []byte {
	f.Helper()
	var reg RegisterResponse
	rec := post(c, "/fleet/register", bytes.NewReader([]byte(`{"name":"fuzz"}`)))
	if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil || rec.Code != http.StatusOK {
		f.Fatalf("register: HTTP %d: %s", rec.Code, rec.Body)
	}
	c.table.add([]WorkUnit{{ID: "r1-t0", RoundUnit: harness.RoundUnit{Round: 1, Target: "figure1", Trials: 2, Seed: 7}}})
	lreq, _ := json.Marshal(LeaseRequest{WorkerID: reg.WorkerID, Generation: reg.Generation})
	var lease LeaseResponse
	rec = post(c, "/fleet/lease", bytes.NewReader(lreq))
	if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil || lease.Unit == nil {
		f.Fatalf("lease: HTTP %d: %s", rec.Code, rec.Body)
	}
	res, err := ExecuteUnit(*lease.Unit, reg.Campaign)
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(ResultRequest{
		WorkerID: reg.WorkerID, Generation: reg.Generation,
		UnitID: lease.Unit.ID, Epoch: lease.Epoch, Result: res,
	})
	if err != nil {
		f.Fatal(err)
	}
	return body
}

// FuzzProtocolBodies posts fuzzed bodies to the coordinator's
// /fleet/result and /fleet/heartbeat handlers. Seeded with a valid
// ResultRequest for a really leased unit (run records included) and a
// truncated copy. A body the handler's decoder rejects must be answered
// 4xx; a decodable one must be accepted or rejected by the lease protocol
// (200, 409 or 410). No body may panic the coordinator or get a 5xx. The
// body cap (maxRequestBytes, 64 MiB) is checked at a small size: the same
// body followed by bytes that never close the JSON value must be cut off
// after at most the cap.
func FuzzProtocolBodies(f *testing.F) {
	full := NewCoordinator(CoordinatorConfig{Store: corpus.NewStore(), Sink: &recordingSink{}})
	if full.maxBody != maxRequestBytes || maxRequestBytes != 64<<20 {
		f.Fatalf("body cap %d, want maxRequestBytes = 64 MiB", full.maxBody)
	}
	capped := NewCoordinator(CoordinatorConfig{Store: corpus.NewStore()})
	capped.maxBody = 1 << 10
	seed := leasedResultBody(f, full)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])

	endpoints := []struct {
		path string
		req  func() any
	}{
		{"/fleet/result", func() any { return new(ResultRequest) }},
		{"/fleet/heartbeat", func() any { return new(HeartbeatRequest) }},
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range endpoints {
			decErr := json.NewDecoder(bytes.NewReader(body)).Decode(ep.req())

			rec := post(full, ep.path, bytes.NewReader(body))
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("%s: HTTP %d with a non-JSON answer %q", ep.path, rec.Code, rec.Body)
			}
			switch {
			case decErr != nil && (rec.Code < 400 || rec.Code >= 500):
				t.Fatalf("%s: undecodable body (%v) answered HTTP %d, want 4xx", ep.path, decErr, rec.Code)
			case decErr == nil && rec.Code != http.StatusOK && rec.Code != http.StatusConflict && rec.Code != http.StatusGone:
				t.Fatalf("%s: decodable body answered HTTP %d: %s", ep.path, rec.Code, rec.Body)
			}

			tail := &endlessBody{prefix: body}
			rec = post(capped, ep.path, tail)
			if tail.read > capped.maxBody+1 {
				t.Fatalf("%s: read %d bytes past a %d-byte cap", ep.path, tail.read, capped.maxBody)
			}
			if rec.Code >= 500 || (decErr != nil && rec.Code < 400) {
				t.Fatalf("%s: capped endless body (decode error %v) answered HTTP %d", ep.path, decErr, rec.Code)
			}
		}
	})
}
