package analytics

import (
	"strings"
	"testing"

	"racefuzzer/internal/fleetspan"
)

// fleetTrailFixture builds a small but complete span trail: two workers, one
// requeue, one drop, stitched sub-spans on every ingested attempt.
func fleetTrailFixture() []fleetspan.UnitTrail {
	const ms = int64(1e6)
	ingested := func(round, ti int, worker string, leased, execNs int64) fleetspan.UnitTrail {
		return fleetspan.UnitTrail{
			Schema: fleetspan.SchemaVersion, SpanID: "t/r1/u0",
			UnitID: "r1-t0", Attempt: 1, Round: round, TargetIndex: ti,
			Target: "figure1", Worker: worker, Epoch: 1,
			Outcome:  fleetspan.OutcomeIngested,
			QueuedNs: leased - 2*ms, LeasedNs: leased,
			LeaseRecvNs: leased + ms, ExecStartNs: leased + 2*ms,
			ExecEndNs: leased + 2*ms + execNs, PostedNs: leased + 3*ms + execNs,
			ResultNs: leased + 4*ms + execNs, IngestedNs: leased + 5*ms + execNs,
			EndNs: leased + 5*ms + execNs,
		}
	}
	return []fleetspan.UnitTrail{
		ingested(1, 0, "w1", 10*ms, 50*ms),
		ingested(1, 1, "w2", 10*ms, 70*ms),
		{
			Schema: fleetspan.SchemaVersion, SpanID: "t/r2/u0",
			UnitID: "r2-t0", Attempt: 1, Round: 2, TargetIndex: 0,
			Target: "figure1", Worker: "w1", Epoch: 3,
			Outcome:  fleetspan.OutcomeRequeued,
			QueuedNs: 200 * ms, LeasedNs: 210 * ms, EndNs: 300 * ms,
		},
		{
			Schema: fleetspan.SchemaVersion, SpanID: "t/r2/u0",
			UnitID: "r2-t0", Attempt: 2, Round: 2, TargetIndex: 0,
			Target: "figure1", Worker: "w1", Epoch: 3,
			Outcome: fleetspan.OutcomeDropped, DropReason: "stale lease epoch",
			EndNs: 310 * ms,
		},
	}
}

// TestFleetSectionFromTrail: a campaign directory carrying fleetspans.jsonl
// gains a fleet section in every output format; one without stays fleet-free.
func TestFleetSectionFromTrail(t *testing.T) {
	dir := t.TempDir()
	writeCampaign(t, dir, 7)
	trailPath := dir + "/corpus/" + fleetspan.TrailFile
	if err := fleetspan.WriteTrails(trailPath, fleetTrailFixture()); err != nil {
		t.Fatal(err)
	}

	c, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c.SpansName != fleetspan.TrailFile || len(c.Trails) != 4 {
		t.Fatalf("trail not ingested: name=%q trails=%d", c.SpansName, len(c.Trails))
	}
	r := Analyze(c)
	f := r.Fleet
	if f == nil {
		t.Fatal("Analyze produced no fleet section")
	}
	if f.Attempts != 4 || f.Ingested != 2 || f.Requeued != 1 || f.Dropped != 1 {
		t.Fatalf("outcome split = %+v", f)
	}
	if f.Stitched != 2 {
		t.Fatalf("stitched = %d, want 2", f.Stitched)
	}
	if f.TimeLostToRequeuesNs != 90e6 {
		t.Fatalf("time lost to requeues = %d ns, want 90ms", f.TimeLostToRequeuesNs)
	}
	if len(f.Workers) != 2 || f.Workers[0].Worker != "w1" || f.Workers[1].Worker != "w2" {
		t.Fatalf("workers = %+v", f.Workers)
	}
	if f.Workers[0].Ingested != 1 || f.Workers[0].Dropped != 1 {
		t.Fatalf("w1 stats = %+v", f.Workers[0])
	}
	if f.Workers[0].ExecP50Ns != 50e6 || f.Workers[1].ExecP50Ns != 70e6 {
		t.Fatalf("exec p50s = %d / %d", f.Workers[0].ExecP50Ns, f.Workers[1].ExecP50Ns)
	}
	if f.Workers[0].LeaseLatP50Ns != 1e6 {
		t.Fatalf("w1 lease p50 = %d, want 1ms", f.Workers[0].LeaseLatP50Ns)
	}
	// The waterfall covers the full causal chain, exec dominating.
	var exec *PhaseStat
	for i := range f.Waterfall {
		if f.Waterfall[i].Phase == "trial execution" {
			exec = &f.Waterfall[i]
		}
	}
	if len(f.Waterfall) != 7 || exec == nil {
		t.Fatalf("waterfall = %+v", f.Waterfall)
	}
	if exec.Count != 2 || exec.MeanNs != 60e6 {
		t.Fatalf("exec phase = %+v", exec)
	}

	md := Markdown(r)
	for _, want := range []string{"## Fleet tracing", "Span-phase waterfall", "| w1 |", "| w2 |", "90ms", "fleetspans.jsonl"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown lacks %q", want)
		}
	}
	csv := CSV(r)
	for _, want := range []string{"# fleet\n", "# fleet_workers\n", "# fleet_waterfall\n", "trial execution,2,60000000,120000000"} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv lacks %q", want)
		}
	}
	// Untraced campaigns are untouched.
	plain := t.TempDir()
	writeCampaign(t, plain, 7)
	c2, err := LoadDir(plain)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := Analyze(c2); r2.Fleet != nil {
		t.Fatal("untraced campaign grew a fleet section")
	}
	if strings.Contains(Markdown(Analyze(c2)), "Fleet tracing") {
		t.Error("untraced markdown mentions fleet tracing")
	}
}
