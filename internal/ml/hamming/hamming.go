// Package hamming implements the paper's pure-HDC classifier (§II.C): a
// record hypervector is labeled with the class of its nearest neighbour
// under Hamming distance, and the model is validated with leave-one-out
// cross-validation that measures each pair of records once.
package hamming

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hdfe/internal/hv"
	"hdfe/internal/metrics"
	"hdfe/internal/ml"
	"hdfe/internal/parallel"
)

// Model is a fitted nearest-neighbour Hamming classifier. In HDC terms
// there is no training beyond storing the encoded records: "once the
// hypervectors are constructed there's no model that needs to be built, we
// only need to measure distances."
type Model struct {
	pool   []hv.Vector
	labels []int
	k      int
}

// Fit stores the labelled hypervectors. k is the number of neighbours to
// vote (the paper uses 1). It panics on empty input, mismatched lengths,
// non-binary labels or k < 1.
func Fit(vs []hv.Vector, y []int, k int) *Model {
	if len(vs) == 0 {
		panic("hamming: fit with no vectors")
	}
	if len(vs) != len(y) {
		panic(fmt.Sprintf("hamming: %d vectors but %d labels", len(vs), len(y)))
	}
	if k < 1 || k > len(vs) {
		panic(fmt.Sprintf("hamming: k=%d out of range [1,%d]", k, len(vs)))
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			panic(fmt.Sprintf("hamming: non-binary label %d at %d", label, i))
		}
	}
	return &Model{
		pool:   append([]hv.Vector(nil), vs...),
		labels: append([]int(nil), y...),
		k:      k,
	}
}

// Predict returns the majority label among the k nearest stored vectors
// (ties to 1; for k = 1 this is exactly the nearest neighbour's class).
func (m *Model) Predict(v hv.Vector) int {
	p, _ := m.predict(v, nil)
	return p
}

// predict is the scratch-reusing core of Predict: ds is the caller's
// distance buffer (grown as needed) and is returned so per-worker batch
// loops can recycle it across queries without allocating.
func (m *Model) predict(v hv.Vector, ds []int) (int, []int) {
	ds = hv.DistancesSerial(v, m.pool, ds)
	if m.k == 1 {
		best, bestDist := 0, ds[0]
		for j, d := range ds {
			if d < bestDist {
				best, bestDist = j, d
			}
		}
		return m.labels[best], ds
	}
	pos, n := m.voteK(ds)
	if 2*pos >= n {
		return 1, ds
	}
	return 0, ds
}

// voteK returns the number of positive labels among the k nearest stored
// vectors (ties by index) and the neighbour count.
// It keeps the running top-k in stack buffers so batch prediction stays
// allocation-free for the k values classification uses (k up to 32; larger
// k falls back to an allocating full selection).
func (m *Model) voteK(ds []int) (pos, n int) {
	var bestIdx, bestDist [32]int
	if m.k > len(bestIdx) {
		// Rare configuration: sort a (dist, idx) copy and take the head.
		type cand struct{ dist, idx int }
		cands := make([]cand, len(ds))
		for i, d := range ds {
			cands[i] = cand{d, i}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].dist != cands[b].dist {
				return cands[a].dist < cands[b].dist
			}
			return cands[a].idx < cands[b].idx
		})
		for _, c := range cands[:m.k] {
			pos += m.labels[c.idx]
		}
		return pos, m.k
	}
	n = 0
	for i, d := range ds {
		// Insert (d, i) if it beats the current worst; iteration order is
		// ascending i, so strict comparison keeps ties on the lower index.
		if n < m.k {
			j := n
			for j > 0 && bestDist[j-1] > d {
				bestDist[j], bestIdx[j] = bestDist[j-1], bestIdx[j-1]
				j--
			}
			bestDist[j], bestIdx[j] = d, i
			n++
			continue
		}
		if d >= bestDist[n-1] {
			continue
		}
		j := n - 1
		for j > 0 && bestDist[j-1] > d {
			bestDist[j], bestIdx[j] = bestDist[j-1], bestIdx[j-1]
			j--
		}
		bestDist[j], bestIdx[j] = d, i
	}
	for j := 0; j < n; j++ {
		pos += m.labels[bestIdx[j]]
	}
	return pos, n
}

// PredictAll labels each query vector in parallel, one distance buffer per
// worker.
func (m *Model) PredictAll(vs []hv.Vector) []int {
	out := make([]int, len(vs))
	parallel.ForChunked(len(vs), func(lo, hi int) {
		var ds []int
		for i := lo; i < hi; i++ {
			out[i], ds = m.predict(vs[i], ds)
		}
	})
	return out
}

// Score returns a continuous positive-class score for v: the fraction of
// positive labels among the k nearest neighbours, with the k=1 case
// refined by relative distance to the nearest positive and negative
// exemplars so AUC is meaningful.
func (m *Model) Score(v hv.Vector) float64 {
	s, _ := m.score(v, nil)
	return s
}

// score is the scratch-reusing core of Score; see predict.
func (m *Model) score(v hv.Vector, ds []int) (float64, []int) {
	ds = hv.DistancesSerial(v, m.pool, ds)
	if m.k > 1 {
		pos, n := m.voteK(ds)
		return float64(pos) / float64(n), ds
	}
	bestPos, bestNeg := -1, -1
	for i, d := range ds {
		if m.labels[i] == 1 {
			if bestPos == -1 || d < bestPos {
				bestPos = d
			}
		} else {
			if bestNeg == -1 || d < bestNeg {
				bestNeg = d
			}
		}
	}
	switch {
	case bestPos == -1:
		return 0, ds
	case bestNeg == -1:
		return 1, ds
	case bestPos+bestNeg == 0:
		return 0.5, ds
	default:
		// Closer positive exemplar -> higher score, in (0, 1).
		return float64(bestNeg) / float64(bestPos+bestNeg), ds
	}
}

// LeaveOneOut runs the paper's validation (§II.C): each record is labelled
// by its nearest neighbour among all the others (ties to the lowest index),
// and the predictions are tallied into a confusion matrix. The neighbours
// come from nearestOthers, which computes each unordered pair's distance
// once; no n×n distance matrix is ever allocated.
func LeaveOneOut(vs []hv.Vector, y []int) metrics.Confusion {
	if len(vs) != len(y) {
		panic(fmt.Sprintf("hamming: %d vectors but %d labels", len(vs), len(y)))
	}
	if len(vs) < 2 {
		panic("hamming: leave-one-out needs at least two records")
	}
	pred := make([]int, len(vs))
	for i, j := range nearestOthers(vs) {
		pred[i] = y[j]
	}
	return metrics.NewConfusion(y, pred)
}

// tile is the side, in records, of the square blocks nearestOthers splits
// the upper triangle of the distance matrix into. 32 D=10k vectors are
// about 40 KB, so a row tile and a column tile stay cache-resident while
// every pair between them is measured.
const tile = 32

// nearestOthers returns, for every i, the index of the vector nearest to
// vs[i] among all the others, ties to the lowest index. It visits each
// unordered pair {i, j} once: the tiles (a, b) with a <= b of the upper
// triangle fan out across workers, and each distance updates the running
// best of both row i and row j. Every worker keeps its own best arrays and
// merges them by lexicographic (dist, idx) minimum, which does not depend
// on the order of the merges, so the result is the same whatever the
// scheduling.
func nearestOthers(vs []hv.Vector) []int {
	n := len(vs)
	nt := (n + tile - 1) / tile
	type block struct{ a, b int }
	blocks := make([]block, 0, nt*(nt+1)/2)
	for a := 0; a < nt; a++ {
		for b := a; b < nt; b++ {
			blocks = append(blocks, block{a, b})
		}
	}
	bestDist, bestIdx := unsetBests(n)
	var mu sync.Mutex
	parallel.ForChunked(len(blocks), func(lo, hi int) {
		dist, idx := unsetBests(n)
		ds := make([]int, tile)
		for _, blk := range blocks[lo:hi] {
			ilo, ihi := blk.a*tile, min((blk.a+1)*tile, n)
			jlo, jhi := blk.b*tile, min((blk.b+1)*tile, n)
			for i := ilo; i < ihi; i++ {
				j0 := max(jlo, i+1)
				if j0 >= jhi {
					continue
				}
				ds = hv.DistancesSerial(vs[i], vs[j0:jhi], ds)
				for k, d := range ds {
					j := j0 + k
					if closer(d, j, dist[i], idx[i]) {
						dist[i], idx[i] = d, j
					}
					if closer(d, i, dist[j], idx[j]) {
						dist[j], idx[j] = d, i
					}
				}
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range idx {
			if closer(dist[i], idx[i], bestDist[i], bestIdx[i]) {
				bestDist[i], bestIdx[i] = dist[i], idx[i]
			}
		}
	})
	return bestIdx
}

// unsetBests returns n running bests, each (math.MaxInt, -1).
func unsetBests(n int) (dist, idx []int) {
	dist, idx = make([]int, n), make([]int, n)
	for i := range idx {
		dist[i], idx[i] = math.MaxInt, -1
	}
	return dist, idx
}

// closer reports whether candidate (d, j) precedes (bd, bj) in (distance,
// index) order. Unset bests hold (math.MaxInt, -1), which every real
// candidate precedes.
func closer(d, j, bd, bj int) bool {
	return d < bd || (d == bd && j < bj)
}

// FloatAdapter exposes the Hamming classifier through the generic
// ml.Classifier interface over 0/1 float rows (the hybrid pipelines' data
// format): rows are re-binarized at 0.5 and packed into hypervectors.
type FloatAdapter struct {
	k     int
	model *Model
	width int
}

var _ ml.Classifier = (*FloatAdapter)(nil)
var _ ml.Scorer = (*FloatAdapter)(nil)

// NewFloatAdapter returns an adapter voting k neighbours.
func NewFloatAdapter(k int) *FloatAdapter {
	if k < 1 {
		panic(fmt.Sprintf("hamming: k=%d", k))
	}
	return &FloatAdapter{k: k}
}

func packRow(row []float64) hv.Vector {
	v := hv.New(len(row))
	packRowInto(row, v)
	return v
}

// packRowInto re-binarizes row at 0.5 into the caller's reusable vector.
func packRowInto(row []float64, v hv.Vector) {
	v.Clear()
	for j, x := range row {
		if x >= 0.5 {
			v.SetBit(j, true)
		}
	}
}

// Fit packs the rows into hypervectors and stores them.
func (a *FloatAdapter) Fit(X [][]float64, y []int) error {
	if err := ml.ValidateFit(X, y); err != nil {
		return err
	}
	if a.k > len(X) {
		return fmt.Errorf("hamming: k=%d exceeds %d rows", a.k, len(X))
	}
	vs := make([]hv.Vector, len(X))
	for i, row := range X {
		vs[i] = packRow(row)
	}
	a.model = Fit(vs, y, a.k)
	a.width = len(X[0])
	return nil
}

// Predict labels each row by its nearest stored hypervector; each worker
// reuses one packed query vector and one distance buffer across its rows.
func (a *FloatAdapter) Predict(X [][]float64) []int {
	if a.model == nil {
		panic("hamming: predict before fit")
	}
	ml.CheckPredict(X, a.width)
	out := make([]int, len(X))
	parallel.ForChunked(len(X), func(lo, hi int) {
		q := hv.New(a.width)
		var ds []int
		for i := lo; i < hi; i++ {
			packRowInto(X[i], q)
			out[i], ds = a.model.predict(q, ds)
		}
	})
	return out
}

// Scores returns continuous positive-class scores per row, with the same
// per-worker buffer reuse as Predict.
func (a *FloatAdapter) Scores(X [][]float64) []float64 {
	if a.model == nil {
		panic("hamming: scores before fit")
	}
	ml.CheckPredict(X, a.width)
	out := make([]float64, len(X))
	parallel.ForChunked(len(X), func(lo, hi int) {
		q := hv.New(a.width)
		var ds []int
		for i := lo; i < hi; i++ {
			packRowInto(X[i], q)
			out[i], ds = a.model.score(q, ds)
		}
	})
	return out
}
