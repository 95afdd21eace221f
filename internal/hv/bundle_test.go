package hv

import (
	"math/bits"
	"testing"

	"hdfe/internal/rng"
)

func TestBundleMajorityOddCount(t *testing.T) {
	a := FromBits([]uint8{1, 1, 0, 0})
	b := FromBits([]uint8{1, 0, 1, 0})
	c := FromBits([]uint8{0, 1, 1, 0})
	got := Bundle([]Vector{a, b, c}, TieToOne)
	want := FromBits([]uint8{1, 1, 1, 0})
	if !got.Equal(want) {
		t.Fatalf("Bundle = %v, want %v", got, want)
	}
}

// The paper's worked example: A0=1, B0=1, C0=0 → combined bit 0 is 1.
func TestBundlePaperExample(t *testing.T) {
	a := FromBits([]uint8{1})
	b := FromBits([]uint8{1})
	c := FromBits([]uint8{0})
	if got := Bundle([]Vector{a, b, c}, TieToOne); !got.Bit(0) {
		t.Fatal("paper example: majority of {1,1,0} must be 1")
	}
}

func TestBundleTieBreaking(t *testing.T) {
	a := FromBits([]uint8{1, 0})
	b := FromBits([]uint8{0, 1})
	toOne := Bundle([]Vector{a, b}, TieToOne)
	if !toOne.Bit(0) || !toOne.Bit(1) {
		t.Fatalf("TieToOne gave %v, want all ones", toOne)
	}
	toZero := Bundle([]Vector{a, b}, TieToZero)
	if toZero.Bit(0) || toZero.Bit(1) {
		t.Fatalf("TieToZero gave %v, want all zeros", toZero)
	}
}

func TestBundleSingleVectorIsIdentity(t *testing.T) {
	r := rng.New(1)
	v := Rand(r, 333)
	if !Bundle([]Vector{v}, TieToOne).Equal(v) {
		t.Fatal("bundle of one vector must equal it")
	}
}

func TestBundlePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty bundle")
		}
	}()
	Bundle(nil, TieToOne)
}

// Bundling preserves similarity: the bundle of k random vectors is closer
// to each constituent than to an unrelated random vector (the property
// that makes record encoding work).
func TestBundleSimilarToConstituents(t *testing.T) {
	r := rng.New(2)
	const d = 10000
	vs := make([]Vector, 7)
	for i := range vs {
		vs[i] = Rand(r, d)
	}
	bundle := Bundle(vs, TieToOne)
	outsider := Rand(r, d)
	outDist := Hamming(bundle, outsider)
	for i, v := range vs {
		if in := Hamming(bundle, v); in >= outDist {
			t.Fatalf("constituent %d at distance %d, outsider at %d", i, in, outDist)
		}
	}
}

func TestAccumulatorMatchesBundle(t *testing.T) {
	r := rng.New(3)
	vs := make([]Vector, 6)
	for i := range vs {
		vs[i] = Rand(r, 200)
	}
	acc := NewAccumulator(200)
	for _, v := range vs {
		acc.Add(v)
	}
	if !acc.Majority(TieToOne).Equal(Bundle(vs, TieToOne)) {
		t.Fatal("accumulator majority != Bundle")
	}
	if acc.Count() != 6 {
		t.Fatalf("Count = %d", acc.Count())
	}
}

// Adding a vector several times outweighs a single dissenter: counts above
// one must carry correctly between planes.
func TestAccumulatorWeighted(t *testing.T) {
	a := FromBits([]uint8{1, 0})
	b := FromBits([]uint8{0, 1})
	acc := NewAccumulator(2)
	for i := 0; i < 3; i++ {
		acc.Add(a)
	}
	acc.Add(b)
	got := acc.Majority(TieToOne)
	// a dominates 3 to 1.
	if !got.Equal(a) {
		t.Fatalf("weighted majority = %v, want %v", got, a)
	}
}

// thresholdInto is the compare MajorityInto is built on: bit i is set iff
// at least k of the added vectors set it.
func TestAccumulatorThreshold(t *testing.T) {
	a := FromBits([]uint8{1, 1, 0})
	b := FromBits([]uint8{1, 0, 0})
	c := FromBits([]uint8{1, 0, 1})
	acc := NewAccumulator(3)
	for _, v := range []Vector{a, b, c} {
		acc.Add(v)
	}
	got := New(3)
	if acc.thresholdInto(3, got); !got.Equal(FromBits([]uint8{1, 0, 0})) {
		t.Fatalf("threshold 3 = %v", got)
	}
	if acc.thresholdInto(1, got); !got.Equal(FromBits([]uint8{1, 1, 1})) {
		t.Fatalf("threshold 1 = %v", got)
	}
}

func TestAccumulatorReset(t *testing.T) {
	acc := NewAccumulator(4)
	acc.Add(FromBits([]uint8{1, 1, 1, 1}))
	acc.Reset()
	if acc.Count() != 0 {
		t.Fatal("count after reset")
	}
	acc.Add(FromBits([]uint8{0, 0, 0, 1}))
	if got := acc.Majority(TieToOne); !got.Equal(FromBits([]uint8{0, 0, 0, 1})) {
		t.Fatalf("majority after reset = %v", got)
	}
}

func TestAccumulatorPanics(t *testing.T) {
	cases := []func(){
		func() { NewAccumulator(0) },
		func() { NewAccumulator(4).Majority(TieToOne) },
		func() { NewAccumulator(4).Add(New(5)) },
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

// refAccumulator is the plain per-position counter the bit-sliced
// Accumulator replaces: one int32 per bit, one increment per set bit, one
// compare per bit. FuzzAccumulator and the threshold tests check the
// Accumulator against it bit for bit.
type refAccumulator struct {
	counts []int32
	total  int
}

func newRefAccumulator(d int) *refAccumulator {
	return &refAccumulator{counts: make([]int32, d)}
}

func (a *refAccumulator) add(v Vector) {
	for wi, word := range v.words {
		base := wi * wordBits
		for word != 0 {
			a.counts[base+bits.TrailingZeros64(word)]++
			word &= word - 1
		}
	}
	a.total++
}

// threshold sets bit i iff at least k added vectors set it.
func (a *refAccumulator) threshold(k int) Vector {
	out := New(len(a.counts))
	for i, c := range a.counts {
		if int(c) >= k {
			out.setBit(i)
		}
	}
	return out
}

func (a *refAccumulator) majority(tie TieBreak) Vector {
	out := New(len(a.counts))
	for i, c := range a.counts {
		twice := 2 * int(c)
		if twice > a.total || twice == a.total && tie == TieToOne {
			out.setBit(i)
		}
	}
	return out
}
