package hv

import "math/bits"

// DistancesSerial computes Hamming(query, pool[i]) for all i into dst
// (allocated if nil/short) on the calling goroutine only. Use it with a
// per-worker dst inside loops that are already parallel — leave-one-out
// and batch prediction recycle one dst slice per worker this way instead
// of allocating (or nesting parallelism) per query.
//
// The kernel compares the query with four pool vectors per pass over its
// words, so each query word is loaded once for four popcounts; a scalar
// tail handles the last len(pool)%4 vectors. Every pool vector is checked
// against the query's dimensionality before it is read.
func DistancesSerial(query Vector, pool []Vector, dst []int) []int {
	if cap(dst) < len(pool) {
		dst = make([]int, len(pool))
	}
	dst = dst[:len(pool)]
	qw := query.words
	i := 0
	for ; i+4 <= len(pool); i += 4 {
		for _, p := range pool[i : i+4] {
			checkSameDim(query, p)
		}
		// Equal dims mean equal word counts; the reslices let the
		// compiler drop the per-word bounds checks.
		w0 := pool[i].words[:len(qw)]
		w1 := pool[i+1].words[:len(qw)]
		w2 := pool[i+2].words[:len(qw)]
		w3 := pool[i+3].words[:len(qw)]
		var d0, d1, d2, d3 int
		for k, x := range qw {
			d0 += bits.OnesCount64(x ^ w0[k])
			d1 += bits.OnesCount64(x ^ w1[k])
			d2 += bits.OnesCount64(x ^ w2[k])
			d3 += bits.OnesCount64(x ^ w3[k])
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(pool); i++ {
		checkSameDim(query, pool[i])
		pw := pool[i].words[:len(qw)]
		d := 0
		for k, x := range qw {
			d += bits.OnesCount64(x ^ pw[k])
		}
		dst[i] = d
	}
	return dst
}
