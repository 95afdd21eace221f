package hv

import (
	"testing"

	"hdfe/internal/rng"
)

// FuzzMajorityInto bundles arbitrary bit patterns at arbitrary (small)
// dimensionalities and cross-checks three things: MajorityInto never
// panics on well-formed input, it agrees with the allocating Majority, and
// both agree with a naive per-bit recount of the inputs. Dimensionalities
// straddle the 64-bit word boundary so tail-masking bugs surface.
func FuzzMajorityInto(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, uint8(3), false)
	f.Add([]byte{0x01}, uint8(63), true)
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x42, 0x42, 0x42, 0x42, 0x99}, uint8(65), false)
	f.Fuzz(func(t *testing.T, data []byte, dimSeed uint8, tieToZero bool) {
		dim := 1 + int(dimSeed)%130 // 1..130: crosses one and two word boundaries
		bytesPerVec := (dim + 7) / 8
		n := len(data) / bytesPerVec
		if n == 0 {
			t.Skip("not enough bytes for one vector")
		}
		if n > 33 {
			n = 33
		}
		tie := TieToOne
		if tieToZero {
			tie = TieToZero
		}
		vecs := make([]Vector, n)
		for i := range vecs {
			v := New(dim)
			chunk := data[i*bytesPerVec:]
			for b := 0; b < dim; b++ {
				if chunk[b/8]&(1<<(b%8)) != 0 {
					v.SetBit(b, true)
				}
			}
			vecs[i] = v
		}

		acc := NewAccumulator(dim)
		for _, v := range vecs {
			acc.Add(v)
		}
		into := New(dim)
		acc.MajorityInto(tie, into)
		if alloc := acc.Majority(tie); !into.Equal(alloc) {
			t.Fatal("MajorityInto diverged from Majority")
		}
		if bundled := Bundle(vecs, tie); !into.Equal(bundled) {
			t.Fatal("accumulator majority diverged from Bundle")
		}
		// Naive recount: bit i is set iff strictly more than half the
		// vectors set it, or exactly half with TieToOne.
		for b := 0; b < dim; b++ {
			count := 0
			for _, v := range vecs {
				if v.Bit(b) {
					count++
				}
			}
			want := 2*count > n || (2*count == n && tie == TieToOne)
			if into.Bit(b) != want {
				t.Fatalf("bit %d: majority %v, recount %v (count %d of %d, tie %v)",
					b, into.Bit(b), want, count, n, tie)
			}
		}
		// Tail invariant: no bits set beyond dim in the backing words.
		if got := into.OnesCount(); got != len(into.Ones()) {
			t.Fatalf("popcount %d disagrees with Ones() length %d: tail bits leaked", got, len(into.Ones()))
		}
	})
}

// FuzzAccumulator pins the bit-sliced Accumulator against the per-position
// counter reference for 1 to 600 inputs (the sizes core.Prototypes sees),
// both tie rules, and dimensionalities straddling word boundaries. repeat
// sets how often an input repeats the previous one, which drives counts up
// through the planes' carries. The same accumulator is then Reset and
// refilled with fewer inputs, so stale high planes must not leak.
func FuzzAccumulator(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), false, uint8(0))
	f.Add(uint64(2), uint16(7), uint16(63), true, uint8(128))
	f.Add(uint64(3), uint16(599), uint16(64), false, uint8(250))
	f.Add(uint64(4), uint16(255), uint16(129), true, uint8(64))
	f.Add(uint64(5), uint16(512), uint16(191), false, uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, nSeed, dimSeed uint16, tieToZero bool, repeat uint8) {
		n := 1 + int(nSeed)%600
		dim := 1 + int(dimSeed)%260 // 1..260: crosses four word boundaries
		tie := TieToOne
		if tieToZero {
			tie = TieToZero
		}
		r := rng.New(seed)
		acc := NewAccumulator(dim)
		for _, size := range []int{n, 1 + n/3} {
			acc.Reset()
			ref := newRefAccumulator(dim)
			v := Rand(r, dim)
			for i := 0; i < size; i++ {
				if r.Intn(256) >= int(repeat) {
					v = Rand(r, dim)
				}
				acc.Add(v)
				ref.add(v)
			}
			if acc.Count() != size {
				t.Fatalf("Count = %d after %d adds", acc.Count(), size)
			}
			got := New(dim)
			acc.MajorityInto(tie, got)
			if want := ref.majority(tie); !got.Equal(want) {
				t.Fatalf("n=%d dim=%d tie=%v: bit-sliced majority differs from the counter", size, dim, tie)
			}
			for _, k := range []int{1, (size + 1) / 2, size} {
				acc.thresholdInto(k, got)
				if !got.Equal(ref.threshold(k)) {
					t.Fatalf("n=%d dim=%d: threshold %d differs from the counter", size, dim, k)
				}
			}
		}
	})
}
