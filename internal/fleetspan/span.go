// Package fleetspan is the fleet campaign's flight recorder: a wide-event,
// allocation-conscious distributed tracing plane for coordinator + worker
// campaigns. Every work unit carries a deterministic span ID (campaign
// provenance + round + unit index — no timestamps in identity, so replay
// determinism survives); the coordinator records queued→leased→heartbeat→
// result→ingested transitions on its own clock, workers ship their local
// lease-received→exec→posted sub-spans back piggybacked on the result POST,
// and the collector stitches the two sides together with per-worker clock
// offset estimation that never reorders causal edges. The closed trail is
// saved as fleetspans.jsonl (jsonl.go) and read back by the Perfetto export
// (perfetto.go) and campaignreport's "Fleet tracing" section.
//
// The package follows the repo's nil-safe observability contract: every
// Collector method is a no-op on a nil receiver, so an untraced campaign
// pays nothing (asserted by TestCollectorDisabledOverhead) and produces
// byte-identical findings/coverage/witness artifacts (asserted by the fleet
// e2e test). The span trail is a side channel only.
package fleetspan

import (
	"fmt"
	"time"
)

// SchemaVersion stamps every trail record; loaders reject other versions.
const SchemaVersion = 1

// Outcome values for one lease attempt.
const (
	// OutcomeIngested: the attempt's result was accepted and folded into the
	// authoritative corpus — the terminal success state.
	OutcomeIngested = "ingested"
	// OutcomeRequeued: the lease expired and the unit went back to the queue;
	// a later attempt (higher Attempt) finishes the unit.
	OutcomeRequeued = "requeued"
	// OutcomeDropped: a result submission was rejected (duplicate, stale
	// epoch, unknown unit) — recorded so operators can see wasted work.
	OutcomeDropped = "dropped"
)

// Clock abstracts time so stitching is testable with
// fake clocks and no sleeps (mirrors fleet.Clock without importing fleet).
type Clock interface {
	Now() time.Time
}

// systemClock is the real clock.
type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

// WorkerSpans is the worker-local sub-span report for one executed unit,
// absolute UnixNano on the worker's clock. It rides back piggybacked on the
// result POST — no extra RPC — and the coordinator maps it onto its own
// clock via the per-worker offset estimate.
type WorkerSpans struct {
	// LeaseRecvNs is when the worker received the lease grant.
	LeaseRecvNs int64 `json:"leaseRecvNs"`
	// ExecStartNs/ExecEndNs bracket harness.RunUnit.
	ExecStartNs int64 `json:"execStartNs"`
	ExecEndNs   int64 `json:"execEndNs"`
	// PostedNs is when the worker began the result POST.
	PostedNs int64 `json:"postedNs"`
}

// UnitTrail is one wide event: everything known about one lease attempt of
// one work unit, all timestamps in nanoseconds on the coordinator's clock
// relative to collector start. Worker-side fields are present only when the
// attempt shipped WorkerSpans; they have been offset-mapped and clamped so
// the causal chain
//
//	queued ≤ leased ≤ leaseRecv ≤ execStart ≤ execEnd ≤ posted ≤ result ≤ ingested
//
// holds by construction regardless of worker clock skew.
type UnitTrail struct {
	Schema int `json:"schema"`
	// SpanID is the unit's deterministic identity: campaign token + round +
	// target index. No timestamps — replaying the campaign reproduces the
	// same IDs.
	SpanID string `json:"spanID"`
	UnitID string `json:"unitID"`
	// Attempt is the 1-based lease attempt for this unit.
	Attempt     int    `json:"attempt"`
	Round       int    `json:"round"`
	TargetIndex int    `json:"targetIndex"`
	Target      string `json:"target"`
	Worker      string `json:"worker,omitempty"`
	Epoch       int64  `json:"epoch,omitempty"`
	Outcome     string `json:"outcome"`
	// DropReason explains an OutcomeDropped record.
	DropReason string `json:"dropReason,omitempty"`
	Heartbeats int    `json:"heartbeats,omitempty"`

	// Coordinator-side transitions (coordinator clock, ns since collector
	// start). Zero means "did not happen for this attempt".
	QueuedNs   int64 `json:"queuedNs"`
	LeasedNs   int64 `json:"leasedNs,omitempty"`
	ResultNs   int64 `json:"resultNs,omitempty"`
	IngestedNs int64 `json:"ingestedNs,omitempty"`
	// EndNs closes the attempt: IngestedNs for ingested attempts, the
	// requeue sweep time for requeued ones, the submission time for drops.
	EndNs int64 `json:"endNs"`

	// Stitched worker-side sub-spans (mapped onto the coordinator clock).
	LeaseRecvNs int64 `json:"leaseRecvNs,omitempty"`
	ExecStartNs int64 `json:"execStartNs,omitempty"`
	ExecEndNs   int64 `json:"execEndNs,omitempty"`
	PostedNs    int64 `json:"postedNs,omitempty"`
	// OffsetNs is the worker→coordinator clock offset estimate applied.
	OffsetNs int64 `json:"offsetNs,omitempty"`
	// Clamped reports that stitching had to clamp at least one worker
	// timestamp into its causal window (heavy skew or too few heartbeats).
	Clamped bool `json:"clamped,omitempty"`
}

// Stitched reports whether the attempt carries worker-side sub-spans.
func (t *UnitTrail) Stitched() bool { return t.ExecStartNs != 0 || t.ExecEndNs != 0 }

// ExecNs is the attempt's execution duration: the stitched exec span when
// present, otherwise the leased→end window (which bounds it from above).
func (t *UnitTrail) ExecNs() int64 {
	if t.Stitched() {
		return t.ExecEndNs - t.ExecStartNs
	}
	if t.LeasedNs > 0 && t.EndNs >= t.LeasedNs {
		return t.EndNs - t.LeasedNs
	}
	return 0
}

// Validate checks one trail record against the schema: version, identity,
// outcome vocabulary, and the causal ordering contract. The CI fleet-smoke
// job runs this over every line of fleetspans.jsonl.
func (t *UnitTrail) Validate() error {
	if t.Schema != SchemaVersion {
		return fmt.Errorf("span %q: schema %d, want %d", t.SpanID, t.Schema, SchemaVersion)
	}
	if t.SpanID == "" || t.UnitID == "" || t.Target == "" {
		return fmt.Errorf("span %q unit %q: missing identity (spanID/unitID/target)", t.SpanID, t.UnitID)
	}
	if t.Round < 1 || t.TargetIndex < 0 || t.Attempt < 1 {
		return fmt.Errorf("span %q: bad coordinates round=%d targetIndex=%d attempt=%d", t.SpanID, t.Round, t.TargetIndex, t.Attempt)
	}
	switch t.Outcome {
	case OutcomeIngested, OutcomeRequeued, OutcomeDropped:
	default:
		return fmt.Errorf("span %q: unknown outcome %q", t.SpanID, t.Outcome)
	}
	// The causal chain: every recorded transition must be ordered. Zero
	// fields mean "not recorded" and are skipped.
	prev, prevName := int64(0), "start"
	for _, step := range []struct {
		name string
		ns   int64
	}{
		{"queued", t.QueuedNs},
		{"leased", t.LeasedNs},
		{"leaseRecv", t.LeaseRecvNs},
		{"execStart", t.ExecStartNs},
		{"execEnd", t.ExecEndNs},
		{"posted", t.PostedNs},
		{"result", t.ResultNs},
		{"ingested", t.IngestedNs},
	} {
		if step.ns == 0 {
			continue
		}
		if step.ns < prev {
			return fmt.Errorf("span %q attempt %d: causal order violated: %s (%d) < %s (%d)",
				t.SpanID, t.Attempt, step.name, step.ns, prevName, prev)
		}
		prev, prevName = step.ns, step.name
	}
	if t.EndNs < prev {
		return fmt.Errorf("span %q attempt %d: end (%d) < %s (%d)", t.SpanID, t.Attempt, t.EndNs, prevName, prev)
	}
	return nil
}
