package hv

import (
	"testing"

	"hdfe/internal/rng"
)

// Every *Into operation must be bit-identical to its value-returning
// counterpart and must not disturb its inputs.

func TestCopyIntoMatchesClone(t *testing.T) {
	r := rng.New(1)
	for _, d := range []int{1, 63, 64, 65, 1000} {
		v := Rand(r, d)
		dst := Rand(r, d) // pre-dirtied: CopyInto must fully overwrite
		v.CopyInto(dst)
		if !dst.Equal(v) {
			t.Fatalf("d=%d: CopyInto != src", d)
		}
	}
}

func TestCopyIntoPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	New(10).CopyInto(New(11))
}

func TestClear(t *testing.T) {
	v := Rand(rng.New(2), 300)
	v.Clear()
	if v.OnesCount() != 0 {
		t.Fatalf("Clear left %d ones", v.OnesCount())
	}
}

func TestXorIntoMatchesXor(t *testing.T) {
	r := rng.New(3)
	const d = 777
	a, b := Rand(r, d), Rand(r, d)
	want := Xor(a, b)
	dst := Rand(r, d)
	XorInto(dst, a, b)
	if !dst.Equal(want) {
		t.Fatal("XorInto != Xor")
	}
	// Aliasing: dst == a.
	aCopy := a.Clone()
	XorInto(aCopy, aCopy, b)
	if !aCopy.Equal(want) {
		t.Fatal("aliased XorInto != Xor")
	}
}

func TestPermuteIntoMatchesPermute(t *testing.T) {
	r := rng.New(4)
	const d = 500
	v := Rand(r, d)
	for _, k := range []int{0, 1, 63, 64, 65, d - 1, d, d + 7, -3} {
		want := Permute(v, k)
		dst := Rand(r, d)
		PermuteInto(dst, v, k)
		if !dst.Equal(want) {
			t.Fatalf("k=%d: PermuteInto != Permute", k)
		}
	}
}

func TestPermuteIntoRejectsAliasing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on aliased PermuteInto")
		}
	}()
	v := Rand(rng.New(5), 64)
	PermuteInto(v, v, 3)
}

func TestMajorityIntoMatchesMajority(t *testing.T) {
	r := rng.New(6)
	const d = 320
	for _, n := range []int{1, 2, 3, 8, 9} {
		for _, tie := range []TieBreak{TieToOne, TieToZero} {
			acc := NewAccumulator(d)
			for i := 0; i < n; i++ {
				acc.Add(Rand(r, d))
			}
			want := acc.Majority(tie)
			dst := Rand(r, d)
			acc.MajorityInto(tie, dst)
			if !dst.Equal(want) {
				t.Fatalf("n=%d tie=%v: MajorityInto != Majority", n, tie)
			}
		}
	}
}

func TestThresholdIntoMatchesThreshold(t *testing.T) {
	r := rng.New(7)
	const d = 320
	acc := NewAccumulator(d)
	ref := newRefAccumulator(d)
	for i := 0; i < 7; i++ {
		v := Rand(r, d)
		acc.Add(v)
		ref.add(v)
	}
	for k := 1; k <= 7; k++ {
		dst := Rand(r, d) // pre-dirtied: thresholdInto must fully overwrite
		acc.thresholdInto(k, dst)
		if !dst.Equal(ref.threshold(k)) {
			t.Fatalf("k=%d: thresholdInto != counter threshold", k)
		}
	}
}

func TestDistancesSerialMatchesDistances(t *testing.T) {
	r := rng.New(8)
	const d = 640
	pool := make([]Vector, 33)
	for i := range pool {
		pool[i] = Rand(r, d)
	}
	q := Rand(r, d)
	want := make([]int, len(pool))
	for i, p := range pool {
		want[i] = Hamming(q, p)
	}
	dst := make([]int, 4) // too short: must grow
	got := DistancesSerial(q, pool, dst)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Reuse: a second call into the same (now large enough) slice.
	got2 := DistancesSerial(q, pool, got)
	if &got2[0] != &got[0] {
		t.Fatal("DistancesSerial reallocated a sufficient dst")
	}
}

func TestScratchShapesAndPool(t *testing.T) {
	s := NewScratch(200)
	if s.Dim() != 200 || s.Vec().Dim() != 200 || s.Rec().Dim() != 200 || s.Acc().Dim() != 200 {
		t.Fatal("scratch buffers not sized to dim")
	}
	p := GetScratch(200)
	if p.Dim() != 200 {
		t.Fatalf("pooled scratch dim %d", p.Dim())
	}
	PutScratch(p)
	PutScratch(nil) // no-op
}

func TestScratchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool recycling; alloc count is meaningless under -race")
	}
	const d = 1000
	// Warm the pool so the measured region only recycles.
	PutScratch(NewScratch(d))
	allocs := testing.AllocsPerRun(100, func() {
		s := GetScratch(d)
		s.Vec().Clear()
		PutScratch(s)
	})
	if allocs != 0 {
		t.Fatalf("Get/PutScratch steady state allocates %v per run", allocs)
	}
}
