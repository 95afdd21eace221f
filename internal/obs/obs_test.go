package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestHistogram(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile %v, want 0", q)
	}
	// A duration exactly on a bound lands in that bound's bucket; one
	// nanosecond more spills into the next.
	for i := 0; i < NumLatencyBuckets; i++ {
		if got := h.Observe(LatencyBound(i)); got != i {
			t.Fatalf("Observe(LatencyBound(%d)) = bucket %d", i, got)
		}
		if got := h.Observe(LatencyBound(i) + 1); got != i+1 {
			t.Fatalf("Observe(LatencyBound(%d)+1ns) = bucket %d", i, got)
		}
	}
	s := h.Snapshot()
	if s.Count != 2*NumLatencyBuckets {
		t.Fatalf("count %d, want %d", s.Count, 2*NumLatencyBuckets)
	}
	var sum time.Duration
	for i := 0; i < NumLatencyBuckets; i++ {
		sum += 2*LatencyBound(i) + 1
	}
	if s.Sum != sum {
		t.Fatalf("sum %v, want %v", s.Sum, sum)
	}
	if s.Buckets[0] != 1 || s.Buckets[NumLatencyBuckets] != 1 {
		t.Fatalf("edge buckets %d/%d, want 1/1", s.Buckets[0], s.Buckets[NumLatencyBuckets])
	}
	if q := s.Quantile(0); q != LatencyBound(0) {
		t.Fatalf("p0 %v, want the first bound", q)
	}
	// The maximum sits in the overflow bucket: twice the last bound.
	if q := s.Quantile(1); q != 2*LatencyBound(NumLatencyBuckets-1) {
		t.Fatalf("p100 %v, want the overflow value", q)
	}

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	var one Histogram
	one.Observe(100 * time.Microsecond)
	ex := make([]*Exemplar, NumLatencyBuckets+1)
	ex[1] = &Exemplar{TraceID: "abc", Value: 0.0001, Ts: time.UnixMilli(1500)}
	p.LatencyHistogram("lat_seconds", one.Snapshot(), ex, "route", "score")
	out := buf.String()
	for _, want := range []string{
		`lat_seconds_bucket{route="score",le="5e-05"} 0`,
		`lat_seconds_bucket{route="score",le="0.0001"} 1 # {trace_id="abc"} 0.0001 1.500`,
		`lat_seconds_bucket{route="score",le="+Inf"} 1`,
		`lat_seconds_sum{route="score"} 0.0001`,
		`lat_seconds_count{route="score"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "lat_seconds_bucket"); n != NumLatencyBuckets+1 {
		t.Errorf("%d bucket lines, want %d", n, NumLatencyBuckets+1)
	}
}
