package hamming

import (
	"sort"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// clusteredVectors builds two Hamming-separated clusters: class 0 vectors
// are small perturbations of one prototype, class 1 of another.
func clusteredVectors(seed uint64, perClass, dim, noise int) ([]hv.Vector, []int) {
	r := rng.New(seed)
	protoA := hv.Rand(r, dim)
	protoB := hv.Rand(r, dim)
	var vs []hv.Vector
	var y []int
	for i := 0; i < perClass; i++ {
		a := protoA.Clone()
		hv.FlipRandom(a, r, noise)
		vs = append(vs, a)
		y = append(y, 0)
		b := protoB.Clone()
		hv.FlipRandom(b, r, noise)
		vs = append(vs, b)
		y = append(y, 1)
	}
	return vs, y
}

func TestPredictNearest(t *testing.T) {
	vs, y := clusteredVectors(1, 20, 2000, 100)
	m := Fit(vs, y, 1)
	r := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		q := vs[trial].Clone()
		hv.FlipRandom(q, r, 50)
		if got := m.Predict(q); got != y[trial] {
			t.Fatalf("trial %d: got %d want %d", trial, got, y[trial])
		}
	}
}

func TestPredictAllMatchesPredict(t *testing.T) {
	vs, y := clusteredVectors(3, 10, 1000, 50)
	m := Fit(vs, y, 1)
	all := m.PredictAll(vs)
	for i, v := range vs {
		if all[i] != m.Predict(v) {
			t.Fatalf("PredictAll[%d] != Predict", i)
		}
	}
}

func TestKVoting(t *testing.T) {
	// Three stored vectors: the nearest has label 0 but the next two have
	// label 1; k=3 must out-vote the single nearest neighbour.
	d := 100
	base := hv.New(d)
	near := base.Clone()
	near.FlipBit(0) // distance 1, label 0
	mid1 := base.Clone()
	mid1.FlipBit(1)
	mid1.FlipBit(2) // distance 2, label 1
	mid2 := base.Clone()
	mid2.FlipBit(3)
	mid2.FlipBit(4)
	mid2.FlipBit(5) // distance 3, label 1
	m1 := Fit([]hv.Vector{near, mid1, mid2}, []int{0, 1, 1}, 1)
	if m1.Predict(base) != 0 {
		t.Fatal("k=1 should follow nearest")
	}
	m3 := Fit([]hv.Vector{near, mid1, mid2}, []int{0, 1, 1}, 3)
	if m3.Predict(base) != 1 {
		t.Fatal("k=3 should out-vote nearest")
	}
}

// TestKVotingMatchesSortReference pins voteK's stack top-k (k <= 32) and
// its sorting fallback (k > 32) against a plain sort of all distances,
// ties broken by index. Distances drawn from a range of five values make
// ties at the top-k boundary the common case.
func TestKVotingMatchesSortReference(t *testing.T) {
	const n = 80
	r := rng.New(10)
	vs := make([]hv.Vector, n)
	y := make([]int, n)
	for i := range vs {
		vs[i] = hv.Rand(r, 64)
		y[i] = r.Intn(2)
	}
	ds := make([]int, n)
	idx := make([]int, n)
	for _, k := range []int{2, 3, 8, 32, 33, 50} {
		m := Fit(vs, y, k)
		for trial := 0; trial < 200; trial++ {
			for i := range ds {
				ds[i] = r.Intn(5)
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return ds[idx[a]] < ds[idx[b]] })
			want := 0
			for _, i := range idx[:k] {
				want += y[i]
			}
			if pos, got := m.voteK(ds); pos != want || got != k {
				t.Fatalf("k=%d trial %d: voteK = (%d, %d), want (%d, %d)", k, trial, pos, got, want, k)
			}
		}
		// Score is the vote share for k > 1.
		q := hv.Rand(r, 64)
		pos, _ := m.voteK(hv.DistancesSerial(q, vs, nil))
		if got := m.Score(q); got != float64(pos)/float64(k) {
			t.Fatalf("k=%d: score %v, want %v", k, got, float64(pos)/float64(k))
		}
	}
}

func TestLeaveOneOutOnSeparatedClusters(t *testing.T) {
	vs, y := clusteredVectors(4, 30, 2000, 100)
	c := LeaveOneOut(vs, y)
	if c.Total() != len(vs) {
		t.Fatalf("LOO total %d", c.Total())
	}
	if acc := c.Accuracy(); acc != 1 {
		t.Fatalf("LOO accuracy %v on well-separated clusters", acc)
	}
}

func TestLeaveOneOutMatchesNaive(t *testing.T) {
	r := rng.New(5)
	var vs []hv.Vector
	var y []int
	for i := 0; i < 25; i++ {
		vs = append(vs, hv.Rand(r, 300))
		y = append(y, i%2)
	}
	fast := LeaveOneOut(vs, y)
	// Naive re-implementation.
	pred := make([]int, len(vs))
	for i, v := range vs {
		best, bestDist := -1, 0
		for j, u := range vs {
			if d := hv.Hamming(v, u); j != i && (best == -1 || d < bestDist) {
				best, bestDist = j, d
			}
		}
		pred[i] = y[best]
	}
	var naiveCorrect, fastCorrect int
	for i := range pred {
		if pred[i] == y[i] {
			naiveCorrect++
		}
	}
	fastCorrect = fast.TP + fast.TN
	if naiveCorrect != fastCorrect {
		t.Fatalf("fast LOO %d correct, naive %d", fastCorrect, naiveCorrect)
	}
}

func TestScoreDirection(t *testing.T) {
	vs, y := clusteredVectors(6, 15, 1500, 60)
	m := Fit(vs, y, 1)
	r := rng.New(7)
	// A query near a positive exemplar must score higher than one near a
	// negative exemplar.
	var posIdx, negIdx int
	for i, label := range y {
		if label == 1 {
			posIdx = i
		} else {
			negIdx = i
		}
	}
	qp := vs[posIdx].Clone()
	hv.FlipRandom(qp, r, 30)
	qn := vs[negIdx].Clone()
	hv.FlipRandom(qn, r, 30)
	if m.Score(qp) <= m.Score(qn) {
		t.Fatalf("score(pos-ish)=%v <= score(neg-ish)=%v", m.Score(qp), m.Score(qn))
	}
}

func TestFitPanics(t *testing.T) {
	v := hv.New(10)
	cases := []func(){
		func() { Fit(nil, nil, 1) },
		func() { Fit([]hv.Vector{v}, []int{0, 1}, 1) },
		func() { Fit([]hv.Vector{v}, []int{2}, 1) },
		func() { Fit([]hv.Vector{v}, []int{0}, 0) },
		func() { Fit([]hv.Vector{v}, []int{0}, 2) },
		func() { LeaveOneOut([]hv.Vector{v}, []int{0}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestFloatAdapterRoundTrip(t *testing.T) {
	vs, y := clusteredVectors(8, 20, 500, 20)
	X := make([][]float64, len(vs))
	for i, v := range vs {
		X[i] = v.Floats(nil)
	}
	a := NewFloatAdapter(1)
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := a.Predict(X)
	for i := range y {
		if pred[i] != y[i] {
			t.Fatalf("adapter failed to memorize row %d", i)
		}
	}
	scores := a.Scores(X)
	if len(scores) != len(X) {
		t.Fatal("scores length")
	}
}

func TestFloatAdapterErrors(t *testing.T) {
	a := NewFloatAdapter(5)
	if err := a.Fit([][]float64{{1}, {0}}, []int{0, 1}); err == nil {
		t.Fatal("k > n accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic before fit")
		}
	}()
	NewFloatAdapter(1).Predict([][]float64{{1}})
}
