// Package obs is the observability layer for the hdfe serving stack:
// request-scoped pipeline tracing with per-stage latency histograms,
// hand-rolled Prometheus text-format exposition, and structured-logging
// construction — all standard library, all allocation-conscious on the
// hot path.
//
// A finished Trace is the one record of a scoring request: its identity
// (with the trace ID rendered once, at Start), route, status, outcome
// and reason, batch size, model version, and per-stage durations. The
// serving layer derives every per-request view from it in one place —
// stage and request-latency histograms, outcome counters, audit events,
// SLO burn, span export, the /debug/traces rings, and the request log.
//
// The scoring pipeline is modelled as five stages:
//
//	validate    parse + schema-validate the request body
//	batch_wait  time a record waited in the batcher queue before scoring
//	encode      hypervector encoding (TransformRecordInto)
//	score       Hamming-distance scoring against the class prototypes
//	respond     response serialization
//
// A Tracer hands out pooled ActiveTrace recorders, accumulates
// per-stage durations into lock-free histograms, and keeps the most
// recent (a Ring) and the slowest finished traces for /debug/traces.
package obs

import (
	"math"
	"math/bits"
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

// NumLatencyBuckets is the number of bounded buckets the histograms
// expose; one overflow bucket follows. The exposed ladder is 50µs
// doubling up to ~1.6s.
const NumLatencyBuckets = 16

// LatencyBound returns the inclusive upper bound of exposed bucket i.
func LatencyBound(i int) time.Duration {
	return 50 * time.Microsecond << uint(i)
}

// latencyBoundsSeconds is the exposed ladder in seconds, the unit the
// Prometheus *_seconds histograms expose.
var latencyBoundsSeconds = func() []float64 {
	out := make([]float64, NumLatencyBuckets)
	for i := range out {
		out[i] = LatencyBound(i).Seconds()
	}
	return out
}()

// subBuckets splits every exposed bucket into that many equal-width
// sub-buckets, so a quantile read from them is off by at most one
// sub-bucket: 12.5% of its lower edge above the first bound.
const subBuckets = 8

// numFine counts the sub-buckets plus the overflow bucket.
const numFine = NumLatencyBuckets*subBuckets + 1

// fineIndex returns the sub-bucket d falls in: exposed bucket i covers
// (LatencyBound(i-1), LatencyBound(i)] (bucket 0 starts at 0), and a
// duration exactly on a sub-bucket bound belongs to that sub-bucket.
func fineIndex(d time.Duration) int {
	first := LatencyBound(0)
	if d <= first {
		if d <= 0 {
			return 0
		}
		return int((d - 1) / (first / subBuckets))
	}
	i := bits.Len64(uint64((d - 1) / first))
	if i >= NumLatencyBuckets {
		return numFine - 1
	}
	lo := LatencyBound(i - 1)
	return i*subBuckets + int((d-lo-1)/(lo/subBuckets))
}

// fineBound returns the inclusive upper bound of bounded sub-bucket k.
func fineBound(k int) time.Duration {
	i, j := k/subBuckets, time.Duration(k%subBuckets+1)
	if i == 0 {
		return j * (LatencyBound(0) / subBuckets)
	}
	lo := LatencyBound(i - 1)
	return lo + j*(lo/subBuckets)
}

// Histogram is a lock-free latency histogram: eight linear sub-buckets
// per LatencyBound bucket plus an overflow bucket, with the observation
// count and summed duration for Prometheus _count/_sum. Quantiles read
// the sub-buckets; exposition folds them back onto the LatencyBound
// ladder. The zero value is ready to use. It backs both the
// request-latency histogram and the per-stage histograms.
type Histogram struct {
	fine [numFine]atomic.Uint64
	sum  atomic.Uint64 // nanoseconds
}

// Observe records d and returns the index of the exposed bucket it
// landed in: a duration exactly on a bound belongs to that bound's bucket.
func (h *Histogram) Observe(d time.Duration) int {
	k := fineIndex(d)
	h.fine[k].Add(1)
	h.sum.Add(uint64(d))
	return k / subBuckets
}

// Snapshot copies the histogram. Count is the sum of the copied
// buckets, so quantiles and exposition always agree with them; Sum may
// include an observation that landed between the loads.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for k := range h.fine {
		c := h.fine[k].Load()
		s.fine[k] = c
		s.Buckets[k/subBuckets] += c
		s.Count += c
	}
	s.Sum = time.Duration(h.sum.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Buckets [NumLatencyBuckets + 1]uint64 // per exposed bucket (non-cumulative)
	Count   uint64
	Sum     time.Duration
	fine    [numFine]uint64
}

// Quantile returns the upper bound of the first sub-bucket whose
// cumulative count reaches q of all observations (0 when empty; twice
// the last bound for the overflow bucket). It overestimates by at most
// one sub-bucket width, 12.5% of the true value above 50µs.
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
	for k, c := range s.fine[:numFine-1] {
		cum += c
		if cum >= target {
			return fineBound(k)
		}
	}
	return LatencyBound(NumLatencyBuckets-1) * 2
}
