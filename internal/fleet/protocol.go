package fleet

import (
	"racefuzzer/internal/corpus"
	"racefuzzer/internal/harness"
	"racefuzzer/internal/obs"
)

// The HTTP/JSON control plane. Every endpoint is a POST of a JSON request
// body answered with a JSON response (GET /fleet/status is the one
// read-only exception); errors come back as an errorBody with an HTTP
// status, and the one error workers must react to — a generation mismatch
// after a coordinator restart — carries code "reregister".
//
//	POST /fleet/register   RegisterRequest  -> RegisterResponse
//	POST /fleet/lease      LeaseRequest     -> LeaseResponse
//	POST /fleet/heartbeat  HeartbeatRequest -> HeartbeatResponse
//	POST /fleet/result     ResultRequest    -> ResultResponse
//	GET  /fleet/status                      -> Status

// WorkUnit is one leased batch: a harness.RoundUnit under a stable ID.
// Round and Seed pin the allocation round's derived seed stream, Trials is
// the phase-2 budget; any worker running the same build re-executes the
// batch bit-identically, which is what makes lease retries and duplicate
// results safe to reconcile. On the wire the ID precedes the unit's own
// keys.
type WorkUnit struct {
	// ID is the unit's stable identity ("r<round>-t<targetIndex>");
	// idempotent result ingestion is keyed by it.
	ID string `json:"id"`
	harness.RoundUnit
}

// CampaignInfo is the coordinator's standing configuration, sent once at
// registration: how workers should execute batches and what they should
// stream back.
type CampaignInfo struct {
	// Workers is the per-batch trial executor width each fleet worker should
	// run with (core.Options.Workers).
	Workers int `json:"workers"`
	// Records asks workers to stream per-execution obs.RunRecords back so
	// the coordinator's run log and metrics see the whole fleet.
	Records bool `json:"records"`
	// Timing asks workers to stamp each streamed run record with its
	// wall-clock durationNs (core.Probes.Timing, the -timing flag). Off, the
	// registration and the records are byte-identical to an untimed
	// campaign's.
	Timing bool `json:"timing,omitempty"`
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human label for the worker (host:pid by default).
	Name string `json:"name"`
	// Provenance is the worker's build identity, checked against the
	// coordinator's for build parity (same commit + toolchain ⇒ identical
	// trial execution).
	Provenance obs.Provenance `json:"provenance"`
}

// RegisterResponse assigns the worker its identity and the campaign config.
type RegisterResponse struct {
	// WorkerID is the coordinator-assigned identity for all later calls.
	WorkerID string `json:"workerID"`
	// Generation identifies this coordinator process; a mismatch on a later
	// call means the coordinator restarted and the worker must re-register.
	Generation string `json:"generation"`
	// LeaseTTLMillis is the lease expiry the worker must heartbeat within.
	LeaseTTLMillis int64 `json:"leaseTTLMillis"`
	// Campaign is the standing execution config.
	Campaign CampaignInfo `json:"campaign"`
	// Provenance is the coordinator's build identity, for parity checks.
	Provenance obs.Provenance `json:"provenance"`
}

// LeaseRequest asks for the next work unit.
type LeaseRequest struct {
	WorkerID   string `json:"workerID"`
	Generation string `json:"generation"`
}

// LeaseResponse grants a unit, reports an empty hold, or ends the worker.
type LeaseResponse struct {
	// Unit is the granted batch (nil when Wait or Done).
	Unit *WorkUnit `json:"unit,omitempty"`
	// Epoch is the lease's monotonic epoch; heartbeats and the result must
	// echo it, and a stale epoch (the lease expired and was re-granted) is
	// rejected.
	Epoch int64 `json:"epoch,omitempty"`
	// Wait reports that no unit became pending while the request was held;
	// the worker polls again at once.
	Wait bool `json:"wait,omitempty"`
	// Done reports that the campaign is finished and the worker may exit.
	Done bool `json:"done,omitempty"`
}

// HeartbeatRequest extends a held lease.
type HeartbeatRequest struct {
	WorkerID   string `json:"workerID"`
	Generation string `json:"generation"`
	UnitID     string `json:"unitID"`
	Epoch      int64  `json:"epoch"`
}

// HeartbeatResponse acknowledges or revokes the lease.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
	// Lost reports that the lease is no longer held (it expired and was
	// requeued, or the unit completed elsewhere); the worker should abandon
	// the batch — its result would be dropped anyway.
	Lost bool `json:"lost,omitempty"`
}

// UnitResult is one executed batch's report: the worker-local corpus state
// the coordinator merges, plus optional telemetry. It carries no witness
// recordings: a witness is a function of its finding, so the coordinator
// re-records the ones it archives.
type UnitResult struct {
	// Trials and Potential mirror harness.UnitOutcome.
	Trials    int `json:"trials"`
	Potential int `json:"potential"`
	// Findings and Cells are the batch-local corpus in first-report order
	// (hit counts aggregated batch-side); the coordinator folds them with
	// corpus.Store.Ingest/IngestCell under the merge protocol.
	Findings []corpus.Finding      `json:"findings,omitempty"`
	Cells    []corpus.CoverageCell `json:"cells,omitempty"`
	// Records are the batch's per-execution run records (only when
	// CampaignInfo.Records asked for them).
	Records []obs.RunRecord `json:"records,omitempty"`
}

// ResultRequest submits a completed batch.
type ResultRequest struct {
	WorkerID   string     `json:"workerID"`
	Generation string     `json:"generation"`
	UnitID     string     `json:"unitID"`
	Epoch      int64      `json:"epoch"`
	Result     UnitResult `json:"result"`
}

// ResultResponse acknowledges an accepted batch. A rejected batch (duplicate,
// stale epoch, unknown unit) is answered 410 Gone with code "rejected"
// instead — a permanent drop the worker must not retry; the unit was requeued
// or already completed, and determinism guarantees whoever does complete it
// produces the same batch.
type ResultResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// TargetStatus is one target's fleet-wide discovery state on /fleet/status.
type TargetStatus struct {
	Name       string `json:"name"`
	Signatures int    `json:"signatures"`
}

// Status is the /fleet/status snapshot, served on the observatory mux.
type Status struct {
	Generation     string         `json:"generation"`
	Done           bool           `json:"done"`
	WorkersLive    int            `json:"workersLive"`
	WorkersTotal   int            `json:"workersTotal"`
	Pending        int            `json:"pending"`
	Leased         int            `json:"leased"`
	UnitsDone      int            `json:"unitsDone"`
	Requeues       int64          `json:"requeues"`
	ResultsDropped int64          `json:"resultsDropped"`
	LeaseTTLMillis int64          `json:"leaseTTLMillis"`
	Targets        []TargetStatus `json:"targets,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// Code "reregister" tells the worker its registration is stale (the
	// coordinator restarted); "rejected" marks a permanently-dropped result.
	Code string `json:"code,omitempty"`
}

// codeReregister is the error code that sends a worker back to /register.
const codeReregister = "reregister"

// codeRejected marks a result the coordinator permanently dropped (410):
// retrying the identical submission can never succeed.
const codeRejected = "rejected"
