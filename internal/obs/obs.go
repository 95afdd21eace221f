// Package obs is the observability layer for the hdfe serving stack:
// request-scoped pipeline tracing with per-stage latency histograms,
// hand-rolled Prometheus text-format exposition, and structured-logging
// construction — all standard library, all allocation-conscious on the
// hot path.
//
// The scoring pipeline is modelled as five stages:
//
//	validate    parse + schema-validate the request body
//	batch_wait  time a record waited in the batcher queue before scoring
//	encode      hypervector encoding (TransformRecordInto)
//	score       Hamming-distance scoring against the class prototypes
//	respond     response serialization
//
// A Tracer hands out pooled ActiveTrace spans (zero steady-state
// allocations per request), accumulates per-stage durations into
// lock-free histograms, and keeps fixed-size rings of the most recent
// and slowest finished traces for /debug/traces.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of a scoring request.
type Stage uint8

// The pipeline stages, in request order.
const (
	StageValidate Stage = iota
	StageBatchWait
	StageEncode
	StageScore
	StageRespond
)

// NumStages is the number of pipeline stages.
const NumStages = int(StageRespond) + 1

var stageNames = [NumStages]string{"validate", "batch_wait", "encode", "score", "respond"}

// String returns the stage's snake_case metric label.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames lists every stage label in pipeline order.
func StageNames() [NumStages]string { return stageNames }

// NumLatencyBuckets is the number of bounded histogram buckets; one
// overflow bucket follows. The ladder is 50µs doubling up to ~1.6s.
const NumLatencyBuckets = 16

// LatencyBound returns the inclusive upper bound of bounded bucket i.
func LatencyBound(i int) time.Duration {
	return 50 * time.Microsecond << uint(i)
}

// latencyBoundsSeconds is the bucket ladder in seconds, the unit the
// Prometheus *_seconds histograms expose.
var latencyBoundsSeconds = func() []float64 {
	out := make([]float64, NumLatencyBuckets)
	for i := range out {
		out[i] = LatencyBound(i).Seconds()
	}
	return out
}()

// Histogram is a lock-free latency histogram on the LatencyBound ladder:
// bounded buckets plus an overflow bucket, with the observation count and
// summed duration for Prometheus _count/_sum. The zero value is ready to
// use. It backs both the request-latency histogram and the per-stage
// histograms.
type Histogram struct {
	buckets [NumLatencyBuckets + 1]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
}

// Observe records d and returns the index of the bucket it landed in: a
// duration exactly on a bound belongs to that bound's bucket.
func (h *Histogram) Observe(d time.Duration) int {
	i := 0
	for i < NumLatencyBuckets && d > LatencyBound(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(d))
	return i
}

// Snapshot copies the histogram. Concurrent observations may land
// between the loads, so the copy is consistent enough for exposition,
// not transactional.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [NumLatencyBuckets + 1]uint64 // per-bucket (non-cumulative) counts
	Count   uint64
	Sum     time.Duration
}

// Quantile returns the upper bound of the first bucket whose cumulative
// count reaches q of all observations (0 when empty; twice the last
// bound for the overflow bucket). Bucketed quantiles overestimate by at
// most one bucket width — plenty for p50/p99 dashboards.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	total := s.Count
	if total == 0 {
		return 0
	}
	// Rank of the q-quantile order statistic. Ceiling, not truncation:
	// with 9 fast samples and 1 overflow sample, p99's rank must be 10
	// (the overflow sample), not 9 — truncation let an empty-tail
	// histogram report a p99 below an observed overflow latency.
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, c := range s.Buckets[:NumLatencyBuckets] {
		cum += c
		if cum >= target {
			return LatencyBound(i)
		}
	}
	return LatencyBound(NumLatencyBuckets-1) * 2
}
