package encode

import (
	"bytes"
	"math"
	"testing"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// referenceLevelEncode is the plain form of LevelEncoder.EncodeInto that
// the checkpoints replace: copy the seed, then flip the first x/2 of its
// one-positions and the first x - x/2 of its zero-positions, one bit at a
// time.
func referenceLevelEncode(e *LevelEncoder, x int) hv.Vector {
	v := e.Seed()
	for _, p := range e.flipOnes[:x/2] {
		v.FlipBit(int(p))
	}
	for _, p := range e.flipZeros[:x-x/2] {
		v.FlipBit(int(p))
	}
	return v
}

// flipsEncoder returns a level encoder whose range maps value x to exactly
// x flips, for every integer x in [0, dim/2].
func flipsEncoder(seed uint64, dim int) *LevelEncoder {
	return NewLevelEncoder(rng.New(seed), dim, 0, float64(dim)/2)
}

// checkAllLevels compares EncodeInto against the reference at every flip
// count x in [0, D/2], into a dirty destination.
func checkAllLevels(t *testing.T, e *LevelEncoder) {
	t.Helper()
	dim := e.Dim()
	got := hv.Not(hv.New(dim))
	for x := 0; x <= dim/2; x++ {
		if f := e.Flips(float64(x)); f != x {
			t.Fatalf("dim %d: Flips(%d) = %d", dim, x, f)
		}
		e.EncodeInto(float64(x), got)
		want := referenceLevelEncode(e, x)
		if !got.Equal(want) {
			t.Fatalf("dim %d x=%d: checkpointed encoding differs from flip-by-flip reference", dim, x)
		}
		if d := hv.Hamming(got, e.seed); d != x {
			t.Fatalf("dim %d x=%d: %d bits from the seed", dim, x, d)
		}
	}
}

func TestLevelEncoderCheckpointsExhaustive(t *testing.T) {
	for _, dim := range []int{1, 2, 63, 64, 65, 511, 512, 513, 10000, 10001} {
		e := flipsEncoder(uint64(dim), dim)
		if want := dim/2/levelStride + 1; len(e.checkpoints) != want {
			t.Fatalf("dim %d: %d checkpoints, want %d", dim, len(e.checkpoints), want)
		}
		checkAllLevels(t, e)
	}
}

// Checkpoints are not serialized: a read codebook rebuilds them from the
// stored seed and flip order and must encode every level identically.
func TestReadCodebookRebuildsCheckpoints(t *testing.T) {
	const dim = 2049
	specs := []Spec{{Name: "age", Kind: Continuous}, {Name: "bmi", Kind: Continuous}}
	X := [][]float64{{0, 10}, {float64(dim) / 2, 50}}
	cb := Fit(rng.New(21), specs, X, Options{Dim: dim})
	var buf bytes.Buffer
	if _, err := cb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCodebook(&buf)
	if err != nil {
		t.Fatal(err)
	}
	orig := cb.Feature(0).(*LevelEncoder)
	loaded := back.Feature(0).(*LevelEncoder)
	if len(loaded.checkpoints) != len(orig.checkpoints) {
		t.Fatalf("%d checkpoints after load, want %d", len(loaded.checkpoints), len(orig.checkpoints))
	}
	for c := range orig.checkpoints {
		if !loaded.checkpoints[c].Equal(orig.checkpoints[c]) {
			t.Fatalf("checkpoint %d differs after load", c)
		}
	}
	checkAllLevels(t, loaded)
	for x := 0; x <= dim/2; x++ {
		if !back.EncodeFeature(0, float64(x)).Equal(cb.EncodeFeature(0, float64(x))) {
			t.Fatalf("x=%d: loaded codebook encodes differently", x)
		}
	}
}

// A stored flip order too short to reach x = D/2 is rejected at load
// rather than panicking at encode time.
func TestReadCodebookRejectsShortFlipOrder(t *testing.T) {
	const dim = 64
	cb := &Codebook{dim: dim, specs: []Spec{{Name: "x", Kind: Continuous}}}
	e := NewLevelEncoder(rng.New(1), dim, 0, 1)
	short := *e
	short.flipOnes = e.flipOnes[:dim/4-1]
	cb.encs = []FeatureEncoder{&short}
	var buf bytes.Buffer
	if _, err := cb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCodebook(&buf); err == nil {
		t.Fatal("short flip order accepted")
	}
}

// FuzzLevelEncoderCheckpoints checks EncodeInto against the flip-by-flip
// reference at dimensionalities large enough to have many checkpoints
// (FuzzLevelEncoderFlips's D=128 has only the seed), for any flip count
// and for raw float inputs including NaN and the clamp regions.
func FuzzLevelEncoderCheckpoints(f *testing.F) {
	f.Add(uint64(1), uint16(10000), uint16(2500), math.Float64bits(0.5))
	f.Add(uint64(2), uint16(513), uint16(256), math.Float64bits(math.NaN()))
	f.Add(uint64(3), uint16(1025), uint16(255), math.Float64bits(math.Inf(1)))
	f.Add(uint64(4), uint16(64), uint16(0), math.Float64bits(-1))
	f.Fuzz(func(t *testing.T, seed uint64, dimSeed, xSeed uint16, raw uint64) {
		dim := 1 + int(dimSeed)%12000
		e := flipsEncoder(seed, dim)
		x := int(xSeed) % (dim/2 + 1)
		got := hv.New(dim)
		e.EncodeInto(float64(x), got)
		if !got.Equal(referenceLevelEncode(e, x)) {
			t.Fatalf("dim %d x=%d: checkpointed encoding differs from reference", dim, x)
		}
		v := math.Float64frombits(raw)
		e.EncodeInto(v*float64(dim)/2, got)
		if !got.Equal(referenceLevelEncode(e, e.Flips(v*float64(dim)/2))) {
			t.Fatalf("dim %d value %v: checkpointed encoding differs from reference", dim, v)
		}
	})
}

// BenchmarkLevelEncodeInto encodes values spread evenly over the fitted
// range at D=10k, so the remaining flips after the checkpoint copy cover
// every residue.
func BenchmarkLevelEncodeInto(b *testing.B) {
	e := NewLevelEncoder(rng.New(1), testDim, 0, 1)
	vals := make([]float64, 97)
	for i := range vals {
		vals[i] = float64(i) / float64(len(vals)-1)
	}
	dst := hv.New(testDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeInto(vals[i%len(vals)], dst)
	}
}
