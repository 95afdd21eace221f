package serve

import (
	"testing"
	"time"

	"hdfe/internal/obs"
)

func TestBatchBuckets(t *testing.T) {
	cases := []struct {
		n    int
		want string
	}{
		{1, "1"}, {2, "2"}, {3, "3-4"}, {4, "3-4"}, {5, "5-8"}, {8, "5-8"},
		{9, "9-16"}, {16, "9-16"}, {17, "17-32"}, {32, "17-32"},
		{33, "33-64"}, {64, "33-64"}, {65, "65+"}, {1000, "65+"},
	}
	for _, tc := range cases {
		if got := batchBucketLabels[batchBucket(tc.n)]; got != tc.want {
			t.Errorf("batchBucket(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	m.ObserveBatch(1)
	m.ObserveBatch(7)
	m.ObserveBatch(7)
	m.scoreRequests.Add(3)
	m.recordsScored.Add(15)
	s := m.Snapshot()
	if s.Batches != 3 {
		t.Errorf("batches %d", s.Batches)
	}
	if want := 15.0 / 3.0; s.MeanBatchSize != want {
		t.Errorf("mean batch size %v, want %v", s.MeanBatchSize, want)
	}
	var ones, mids uint64
	for _, b := range s.BatchSizes {
		switch b.Size {
		case "1":
			ones = b.Count
		case "5-8":
			mids = b.Count
		}
	}
	if ones != 1 || mids != 2 {
		t.Errorf("histogram ones=%d mids=%d, want 1/2", ones, mids)
	}
}

func TestLatencyQuantiles(t *testing.T) {
	m := NewMetrics()
	if m.latency.Snapshot().Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
	// 90 fast requests, 10 slow: each quantile reads the upper bound of
	// its sample's sub-bucket — 40µs in (37.5, 43.75]µs, 30ms in
	// (28.8, 32]ms — where the doubling ladder alone read 50µs and 51.2ms.
	for i := 0; i < 90; i++ {
		m.latency.Observe(40 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		m.latency.Observe(30 * time.Millisecond)
	}
	p50, p99 := m.latency.Snapshot().Quantile(0.50), m.latency.Snapshot().Quantile(0.99)
	if p50 != 43750*time.Nanosecond {
		t.Errorf("p50 %v, want 43.75µs", p50)
	}
	if p99 != 32*time.Millisecond {
		t.Errorf("p99 %v, want 32ms", p99)
	}
	s := m.Snapshot()
	if s.LatencyP50Micros >= s.LatencyP99Micros {
		t.Errorf("p50 %v >= p99 %v", s.LatencyP50Micros, s.LatencyP99Micros)
	}
	// Overflow bucket: beyond the last bound.
	m2 := NewMetrics()
	m2.latency.Observe(time.Hour)
	if q := m2.latency.Snapshot().Quantile(0.5); q < obs.LatencyBound(obs.NumLatencyBuckets-1) {
		t.Errorf("overflow quantile %v below the last bound", q)
	}
}

// TestQuantileEmptyTailOverflow pins the overflow-rank fix: with 9 fast
// samples and 1 overflow sample, the p99 order statistic is the 10th
// sample — the overflow one — so p99 must not report a bound below it.
// (Truncating the rank used to land p99 in the fast bucket.)
func TestQuantileEmptyTailOverflow(t *testing.T) {
	m := NewMetrics()
	for i := 0; i < 9; i++ {
		m.latency.Observe(40 * time.Microsecond)
	}
	m.latency.Observe(time.Hour) // overflow: beyond obs.LatencyBound(15)
	if q := m.latency.Snapshot().Quantile(0.99); q < obs.LatencyBound(obs.NumLatencyBuckets-1) {
		t.Errorf("p99 = %v, below the overflow sample's lower bound %v",
			q, obs.LatencyBound(obs.NumLatencyBuckets-1))
	}
	// p50 still sits in the fast sample's sub-bucket.
	if q := m.latency.Snapshot().Quantile(0.50); q != 43750*time.Nanosecond {
		t.Errorf("p50 = %v, want 43.75µs", q)
	}
	// q=1.0 is the maximum: always at least the overflow bound.
	if q := m.latency.Snapshot().Quantile(1.0); q < obs.LatencyBound(obs.NumLatencyBuckets-1) {
		t.Errorf("p100 = %v, below the overflow bound", q)
	}
}

// TestLatencyBucketBoundaries pins the bucket-edge contract: a sample
// exactly on a bound (d == obs.LatencyBound(i)) belongs to bucket i, and one
// nanosecond more spills into bucket i+1.
func TestLatencyBucketBoundaries(t *testing.T) {
	for i := 0; i < obs.NumLatencyBuckets; i++ {
		m := NewMetrics()
		m.latency.Observe(obs.LatencyBound(i))
		if got := m.latency.Snapshot().Buckets[i]; got != 1 {
			t.Errorf("d == obs.LatencyBound(%d): bucket %d count %d, want 1", i, i, got)
		}
		m.latency.Observe(obs.LatencyBound(i) + time.Nanosecond)
		if got := m.latency.Snapshot().Buckets[i+1]; got != 1 {
			t.Errorf("d == obs.LatencyBound(%d)+1ns: bucket %d count %d, want 1", i, i+1, got)
		}
	}
	// Quantiles resolve sub-buckets of each exposed bucket: near the soak
	// budget, bucket (25.6, 51.2]ms reads in 3.2ms steps. A sample on a
	// sub-bucket bound reads that bound; one nanosecond more reads the
	// next one, at most 12.5% higher.
	for _, c := range []struct{ d, want time.Duration }{
		{6250 * time.Nanosecond, 6250 * time.Nanosecond},
		{6251 * time.Nanosecond, 12500 * time.Nanosecond},
		{obs.LatencyBound(0) + 1, 56250 * time.Nanosecond},
		{25600*time.Microsecond + 1, 28800 * time.Microsecond},
		{28800 * time.Microsecond, 28800 * time.Microsecond},
		{32 * time.Millisecond, 32 * time.Millisecond},
		{32*time.Millisecond + 1, 35200 * time.Microsecond},
		{obs.LatencyBound(obs.NumLatencyBuckets - 1), obs.LatencyBound(obs.NumLatencyBuckets - 1)},
	} {
		m := NewMetrics()
		m.latency.Observe(c.d)
		if got := m.latency.Snapshot().Quantile(1); got != c.want {
			t.Errorf("sample %v reads %v, want %v", c.d, got, c.want)
		}
	}
	// Sum/count accounting for the Prometheus _sum line.
	m := NewMetrics()
	m.latency.Observe(100 * time.Microsecond)
	m.latency.Observe(300 * time.Microsecond)
	if got := m.latency.Snapshot().Sum; got != 400*time.Microsecond {
		t.Errorf("latency sum %v, want 400µs", got)
	}
	if got := m.latency.Snapshot().Count; got != 2 {
		t.Errorf("latency count %d, want 2", got)
	}
}
