package hv

import (
	"testing"

	"hdfe/internal/rng"
)

func makePool(t testing.TB, n, d int, seed uint64) []Vector {
	t.Helper()
	r := rng.New(seed)
	vs := make([]Vector, n)
	for i := range vs {
		vs[i] = Rand(r, d)
	}
	return vs
}

func BenchmarkHammingD10k(b *testing.B) {
	r := rng.New(1)
	x, y := Rand(r, 10000), Rand(r, 10000)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = Hamming(x, y)
	}
	_ = sink
}

// BenchmarkBundle8Features is the record-encode bundling kernel on its
// own: eight D=10k codewords into one reused accumulator and destination,
// as EncodeRecordInto does per record.
func BenchmarkBundle8Features(b *testing.B) {
	vs := makePool(b, 8, 10000, 3)
	acc := NewAccumulator(10000)
	dst := New(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		for _, v := range vs {
			acc.Add(v)
		}
		acc.MajorityInto(TieToOne, dst)
	}
}

// TestDistancesSerialPoolLengths pins the 4-wide kernel and its scalar
// tail against a plain Hamming loop for every pool length from 0 to 9
// (zero, one and two full groups, each with every tail length), at
// dimensionalities straddling word boundaries. A dirty dst must be fully
// overwritten.
func TestDistancesSerialPoolLengths(t *testing.T) {
	for _, d := range []int{1, 63, 64, 65, 200, 10000} {
		q := Rand(rng.New(uint64(d)), d)
		for n := 0; n <= 9; n++ {
			pool := makePool(t, n, d, uint64(100*d+n))
			dst := make([]int, n)
			for i := range dst {
				dst[i] = -1
			}
			got := DistancesSerial(q, pool, dst)
			if len(got) != n {
				t.Fatalf("D=%d n=%d: %d distances", d, n, len(got))
			}
			for i, p := range pool {
				if want := Hamming(q, p); got[i] != want {
					t.Fatalf("D=%d n=%d: dist[%d] = %d, want %d", d, n, i, got[i], want)
				}
			}
		}
	}
}

// TestDistancesSerialPanicsOnDimMismatch puts one vector of the wrong
// dimensionality at every position of pools of 1 to 9 vectors, so the
// mismatch lands in every slot of a 4-group and of the tail; each must
// panic.
func TestDistancesSerialPanicsOnDimMismatch(t *testing.T) {
	const d = 128
	q := Rand(rng.New(1), d)
	for n := 1; n <= 9; n++ {
		for bad := 0; bad < n; bad++ {
			pool := makePool(t, n, d, uint64(n))
			pool[bad] = New(d + 1)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("n=%d: mismatch at %d did not panic", n, bad)
					}
				}()
				DistancesSerial(q, pool, nil)
			}()
		}
	}
}
