package hamming

import (
	"fmt"
	"runtime"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/metrics"
	"hdfe/internal/rng"
)

// referenceNearestOthers is the row-wise leave-one-out neighbour search
// nearestOthers replaced: every row measures its distance to every other
// row with a plain hv.Hamming, and the first strict minimum wins, so ties
// go to the lowest index.
func referenceNearestOthers(vs []hv.Vector) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		best, bestDist := -1, 0
		for j, u := range vs {
			if j == i {
				continue
			}
			if d := hv.Hamming(v, u); best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
		out[i] = best
	}
	return out
}

// looVectors draws n vectors of dimensionality d from distinct random
// bases; with probability 1/2 a copy gets one bit flipped. Few bases make
// a duplicate-heavy set, where most nearest neighbours tie at distance 0
// or 1 and the lowest index must win.
func looVectors(r *rng.Source, n, d, distinct int) []hv.Vector {
	bases := make([]hv.Vector, distinct)
	for i := range bases {
		bases[i] = hv.Rand(r, d)
	}
	vs := make([]hv.Vector, n)
	for i := range vs {
		vs[i] = bases[r.Intn(distinct)].Clone()
		if r.Intn(2) == 0 {
			vs[i].FlipBit(r.Intn(d))
		}
	}
	return vs
}

// withGOMAXPROCS runs f at each listed GOMAXPROCS and restores the
// original setting on return.
func withGOMAXPROCS(t *testing.T, procs []int, f func(p int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		f(p)
	}
}

func checkNearestOthers(t *testing.T, vs []hv.Vector, want []int, what string) {
	t.Helper()
	got := nearestOthers(vs)
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours for %d vectors", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: nearest other of %d is %d, reference says %d", what, i, got[i], want[i])
		}
	}
}

// TestNearestOthersMatchesReference pins the symmetric tiled search index
// for index against the row-wise reference. The sizes straddle the tile
// side (32) and the kernel's 4-wide groups, the dimensionalities straddle
// word boundaries, and each case runs on random and on duplicate-heavy
// sets at GOMAXPROCS 1, 2 and 4.
func TestNearestOthersMatchesReference(t *testing.T) {
	ns := []int{2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 100, 520, 768}
	dims := []int{1, 63, 64, 65, 200, 10000}
	r := rng.New(11)
	for _, n := range ns {
		for _, d := range dims {
			for _, distinct := range []int{n, 1 + n/8} {
				vs := looVectors(r, n, d, distinct)
				want := referenceNearestOthers(vs)
				withGOMAXPROCS(t, []int{1, 2, 4}, func(p int) {
					checkNearestOthers(t, vs, want, fmt.Sprintf("n=%d D=%d distinct=%d procs=%d", n, d, distinct, p))
				})
			}
		}
	}
}

// FuzzLeaveOneOut cross-checks nearestOthers and LeaveOneOut against the
// row-wise reference for 2 to 200 records at D from 1 to 260, with
// repeated vectors (distinct bases from 1 to n).
func FuzzLeaveOneOut(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(0), uint8(0))
	f.Add(uint64(2), uint8(31), uint16(63), uint8(255))
	f.Add(uint64(3), uint8(64), uint16(64), uint8(3))
	f.Add(uint64(4), uint8(198), uint16(259), uint8(17))
	f.Fuzz(func(t *testing.T, seed uint64, nSeed uint8, dimSeed uint16, distinctSeed uint8) {
		n := 2 + int(nSeed)%199
		d := 1 + int(dimSeed)%260
		distinct := 1 + int(distinctSeed)%n
		r := rng.New(seed)
		vs := looVectors(r, n, d, distinct)
		y := make([]int, n)
		for i := range y {
			y[i] = r.Intn(2)
		}
		want := referenceNearestOthers(vs)
		checkNearestOthers(t, vs, want, fmt.Sprintf("n=%d D=%d distinct=%d", n, d, distinct))
		pred := make([]int, n)
		for i, j := range want {
			pred[i] = y[j]
		}
		if got, want := LeaveOneOut(vs, y), metrics.NewConfusion(y, pred); got != want {
			t.Fatalf("confusion %+v, reference %+v", got, want)
		}
	})
}

// BenchmarkLeaveOneOut is the paper's validation at its scale: one op is
// LOOCV over a 768-record and a 520-record cohort at D = 10,000, the
// sizes of Pima M and Sylhet.
func BenchmarkLeaveOneOut(b *testing.B) {
	r := rng.New(13)
	type cohort struct {
		vs []hv.Vector
		y  []int
	}
	var cohorts []cohort
	for _, n := range []int{768, 520} {
		c := cohort{make([]hv.Vector, n), make([]int, n)}
		for i := range c.vs {
			c.vs[i] = hv.Rand(r, 10000)
			c.y[i] = r.Intn(2)
		}
		cohorts = append(cohorts, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cohorts {
			LeaveOneOut(c.vs, c.y)
		}
	}
}
