package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeNilSafety(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has value")
	}
	real := &Counter{}
	real.Inc()
	real.Add(2)
	if real.Value() != 3 {
		t.Fatalf("counter = %d", real.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(10, 100)
	for _, v := range []float64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d", s.Count)
	}
	// Buckets: <=10 gets {1,10}; <=100 gets {11,100}; overflow gets {101,5000}.
	want := []int64{2, 2, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Min != 1 || s.Max != 5000 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean() != (1+10+11+100+101+5000)/6.0 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if !strings.Contains(s.String(), "n=6") {
		t.Fatalf("render: %q", s.String())
	}

	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram observed")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(10, 100)
	b := NewHistogram(10, 100)
	a.Observe(5)
	b.Observe(50)
	b.Observe(500)
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 3 || s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("merged = %+v", s)
	}
	if s.Min != 5 || s.Max != 500 {
		t.Fatalf("merged min/max = %v/%v", s.Min, s.Max)
	}
	// Merging into an empty histogram adopts min/max.
	c := NewHistogram(10, 100)
	c.Merge(b)
	if cs := c.Snapshot(); cs.Min != 50 || cs.Max != 500 {
		t.Fatalf("empty-merge min/max = %v/%v", cs.Min, cs.Max)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10, 20, 30)
	// Empty histogram: quantiles are 0, not NaN.
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram q0.5 = %v, want 0", got)
	}
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Quantile(0); got != s.Min {
		t.Errorf("q0 = %v, want Min %v", got, s.Min)
	}
	if got := s.Quantile(1); got != s.Max {
		t.Errorf("q1 = %v, want Max %v", got, s.Max)
	}
	// Half the mass is in the overflow bucket (31..100); the median must be
	// in it, and never exceed the observed Max.
	if got := s.Quantile(0.9); got > s.Max {
		t.Errorf("q0.9 = %v exceeds Max %v", got, s.Max)
	}
	// q0.05 lands in the first bucket (values 1..10): interpolation keeps it
	// within the bucket's range.
	if got := s.Quantile(0.05); got < s.Min || got > 10 {
		t.Errorf("q0.05 = %v, want within [%v, 10]", got, s.Min)
	}
	// Quantiles are monotonic in q.
	prev := math.Inf(-1)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := s.Quantile(q)
		if v < prev {
			t.Errorf("quantiles not monotonic: q%v = %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestSnapshotJSONAndTable(t *testing.T) {
	h := NewHistogram(5)
	h.Observe(3)
	s := Snapshot{
		Counters:   []NamedCounter{{Name: "a.count", Value: 7}},
		Gauges:     []NamedGauge{{Name: "b.rate", Value: 1.25}},
		Histograms: []NamedHistogram{{Name: "c.hist", Hist: h.Snapshot()}},
	}

	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters[0].Value != 7 || back.Gauges[0].Value != 1.25 || back.Histograms[0].Hist.Count != 1 {
		t.Fatalf("roundtrip = %+v", back)
	}

	tab := s.Table("metrics").Render()
	for _, want := range []string{"a.count", "7", "b.rate", "1.25", "c.hist"} {
		if !strings.Contains(tab, want) {
			t.Fatalf("table missing %q:\n%s", want, tab)
		}
	}
}

// sinkCount prevents the compiler from eliminating the benchmark loops.
var sinkCount int64

// TestNoopOverhead asserts the nil-receiver contract of the metric
// primitives: a probe on a nil *Histogram or *Counter costs no more than a
// few nanoseconds relative to an empty loop, so callers leave probes in
// place and switch observability off by passing nil.
func TestNoopOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceDetectorEnabled {
		t.Skip("race detector instruments calls; ns-level timing is meaningless")
	}
	baseline := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkCount++
		}
	})
	nilPath := testing.Benchmark(func(b *testing.B) {
		var h *Histogram
		var c *Counter
		for i := 0; i < b.N; i++ {
			h.Observe(1)
			c.Inc()
			sinkCount++
		}
	})
	delta := float64(nilPath.NsPerOp()) - float64(baseline.NsPerOp())
	// "A few ns": the two probe calls above are nil checks that should
	// each cost well under 5ns even on slow CI hardware.
	if delta > 10 {
		t.Fatalf("no-op metrics path adds %.1f ns/event (baseline %d ns, nil-path %d ns)",
			delta, baseline.NsPerOp(), nilPath.NsPerOp())
	}
}
