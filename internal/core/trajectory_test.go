package core

import (
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

func fittedExtractor(t *testing.T, dim int) *Extractor {
	t.Helper()
	e := NewExtractor(Options{Dim: dim, Seed: 21})
	if err := e.FitDataset(toyDataset()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEncodeVisitsOrderSensitive(t *testing.T) {
	e := fittedExtractor(t, 2000)
	a := []float64{5, 5, 0}
	b := []float64{55, 55, 1}
	ab := EncodeVisits(e, [][]float64{a, b}, hv.TieToOne)
	ba := EncodeVisits(e, [][]float64{b, a}, hv.TieToOne)
	if ab.Equal(ba) {
		t.Fatal("visit order did not change the history encoding")
	}
	// But the same history encodes identically.
	ab2 := EncodeVisits(e, [][]float64{a, b}, hv.TieToOne)
	if !ab.Equal(ab2) {
		t.Fatal("history encoding not deterministic")
	}
}

func TestEncodeVisitsSimilarHistoriesClose(t *testing.T) {
	e := fittedExtractor(t, 4000)
	base := [][]float64{{5, 5, 0}, {10, 10, 0}, {15, 15, 0}}
	near := [][]float64{{6, 6, 0}, {11, 11, 0}, {16, 16, 0}}
	far := [][]float64{{55, 55, 1}, {58, 59, 1}, {60, 61, 1}}
	vb := EncodeVisits(e, base, hv.TieToOne)
	vn := EncodeVisits(e, near, hv.TieToOne)
	vf := EncodeVisits(e, far, hv.TieToOne)
	if hv.Hamming(vb, vn) >= hv.Hamming(vb, vf) {
		t.Fatalf("near history at %d, far history at %d", hv.Hamming(vb, vn), hv.Hamming(vb, vf))
	}
}

func TestEncodeVisitsSingleVisitIsRecord(t *testing.T) {
	e := fittedExtractor(t, 1000)
	visit := []float64{12, 30, 1}
	got := EncodeVisits(e, [][]float64{visit}, hv.TieToOne)
	if !got.Equal(e.TransformRecord(visit)) {
		t.Fatal("single-visit history must equal the record encoding (permute by 0)")
	}
}

func TestEncodeVisitsPanics(t *testing.T) {
	e := fittedExtractor(t, 500)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty history")
		}
	}()
	EncodeVisits(e, nil, hv.TieToOne)
}

func TestPrototypes(t *testing.T) {
	d := toyDataset()
	e := fittedExtractor(t, 2000)
	vs := e.Transform(d.X)
	neg, pos := Prototypes(vs, d.Y, hv.TieToOne)
	// Prototypes must classify the cohort well through affinity.
	correct := 0
	for i, v := range vs {
		pred := 0
		if ClassAffinity(v, neg, pos) >= 0.5 {
			pred = 1
		}
		if pred == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(vs)); acc < 0.9 {
		t.Fatalf("prototype affinity accuracy %v", acc)
	}
	// Each prototype is the majority bundle of its class members.
	var members [2][]hv.Vector
	for i, v := range vs {
		members[d.Y[i]] = append(members[d.Y[i]], v)
	}
	if !neg.Equal(hv.Bundle(members[0], hv.TieToOne)) || !pos.Equal(hv.Bundle(members[1], hv.TieToOne)) {
		t.Fatal("prototype != majority bundle of class members")
	}

	// Bundling denoises: the prototype of many noisy copies is closer to
	// the clean vector than any one copy is.
	r := rng.New(3)
	const dim = 4000
	clean := hv.Rand(r, dim)
	noisy := []hv.Vector{hv.Rand(r, dim)} // one negative so both classes exist
	labels := []int{0}
	for i := 0; i < 21; i++ {
		v := clean.Clone()
		hv.FlipRandom(v, r, dim/4)
		noisy = append(noisy, v)
		labels = append(labels, 1)
	}
	_, proto := Prototypes(noisy, labels, hv.TieToOne)
	if hv.Hamming(proto, clean) >= hv.Hamming(noisy[1], clean) {
		t.Fatalf("prototype at %d from clean, example at %d: bundling failed to denoise",
			hv.Hamming(proto, clean), hv.Hamming(noisy[1], clean))
	}
}

func TestPrototypesPanics(t *testing.T) {
	vs := []hv.Vector{hv.New(16)}
	cases := []func(){
		func() { Prototypes(nil, nil, hv.TieToOne) },
		func() { Prototypes(vs, []int{0, 1}, hv.TieToOne) },
		func() { Prototypes(vs, []int{2}, hv.TieToOne) },
		func() { Prototypes(vs, []int{1}, hv.TieToOne) }, // class 0 absent
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

func TestRiskTrajectoryTracksDrift(t *testing.T) {
	d := toyDataset()
	e := fittedExtractor(t, 4000)
	vs := e.Transform(d.X)
	neg, pos := Prototypes(vs, d.Y, hv.TieToOne)

	// A patient drifting from the healthy profile toward the sick one.
	visits := [][]float64{
		{2, 3, 0},
		{15, 18, 0},
		{30, 33, 0},
		{45, 48, 1},
		{55, 58, 1},
	}
	traj := RiskTrajectory(e, visits, neg, pos)
	if len(traj) != 5 {
		t.Fatalf("%d points", len(traj))
	}
	if traj[0].Delta != 0 {
		t.Fatal("first delta must be 0")
	}
	if traj[0].Score >= traj[len(traj)-1].Score {
		t.Fatalf("risk did not increase: %v -> %v", traj[0].Score, traj[len(traj)-1].Score)
	}
	// Deltas must be consistent with scores.
	for i := 1; i < len(traj); i++ {
		want := traj[i].Score - traj[i-1].Score
		if diff := traj[i].Delta - want; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("delta at %d inconsistent", i)
		}
	}
}

func TestRiskTrajectoryDimMismatchPanics(t *testing.T) {
	e := fittedExtractor(t, 500)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RiskTrajectory(e, [][]float64{{1, 2, 0}}, hv.New(100), hv.New(100))
}
