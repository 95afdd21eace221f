package hv

import (
	"fmt"
	"math/bits"
)

// TieBreak selects how Bundle resolves a per-bit tie (equal numbers of ones
// and zeros, possible only when bundling an even number of vectors).
type TieBreak int

const (
	// TieToOne sets tied bits to 1. This is the paper's rule (§II.B).
	TieToOne TieBreak = iota
	// TieToZero sets tied bits to 0.
	TieToZero
)

// Bundle combines vs by bitwise majority vote: output bit i is the most
// common value of bit i across vs, with ties resolved by tie. This is the
// paper's record-encoding operator (each patient hypervector is the
// majority bundle of its feature hypervectors).
//
// Bundle panics if vs is empty or dimensionalities disagree.
func Bundle(vs []Vector, tie TieBreak) Vector {
	if len(vs) == 0 {
		panic("hv: Bundle of zero vectors")
	}
	acc := NewAccumulator(vs[0].dim)
	for _, v := range vs {
		acc.Add(v)
	}
	return acc.Majority(tie)
}

// Accumulator counts, at every bit position, how many added vectors set
// that bit, so the majority bundle can be read out without re-walking the
// inputs.
//
// The counts are bit-sliced: plane p holds bit p of every position's count,
// packed 64 positions to a word exactly like a Vector. Adding a vector is a
// ripple-carry increment over whole words that stops as soon as the carry
// is zero, and the majority is a plane-wise count >= k compare. Both cost O(D/64) word operations per
// call instead of one scattered counter update or test per bit, and give
// the same bits as a per-position integer counter.
type Accumulator struct {
	planes []uint64 // plane p is planes[p*nw : (p+1)*nw]
	np     int      // planes in use: bits.Len(total)
	nw     int      // words per plane
	total  int
	dim    int
}

// NewAccumulator returns an empty accumulator for dimensionality d.
func NewAccumulator(d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("hv: invalid accumulator dimensionality %d", d))
	}
	return &Accumulator{nw: (d + wordBits - 1) / wordBits, dim: d}
}

// Dim returns the accumulator's dimensionality.
func (a *Accumulator) Dim() int { return a.dim }

// Count returns the number of vectors added so far.
func (a *Accumulator) Count() int { return a.total }

// Add accumulates v. It panics on dimension mismatch.
func (a *Accumulator) Add(v Vector) {
	if v.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, vector dim %d", a.dim, v.dim))
	}
	a.total++
	if n := bits.Len(uint(a.total)); n > a.np {
		// A new top plane: no count can carry past it, since every count
		// is at most total < 1<<n. Reset keeps the capacity, so a reused
		// accumulator stops allocating once it has seen its largest bundle.
		// The new plane may hold a previous bundle's bits; clear it.
		end := n * a.nw
		if end > cap(a.planes) {
			a.planes = append(a.planes[:cap(a.planes)], make([]uint64, end-cap(a.planes))...)
		}
		a.planes = a.planes[:end]
		clear(a.planes[a.np*a.nw:])
		a.np = n
	}
	nw, planes := a.nw, a.planes
	for w, carry := range v.words {
		for i := w; carry != 0; i += nw {
			s := planes[i]
			planes[i] = s ^ carry
			carry &= s
		}
	}
}

// Majority returns the bundle: bit i is 1 iff more than half of the added
// vectors had bit i set, with exact halves resolved by tie. It panics if
// nothing has been added.
func (a *Accumulator) Majority(tie TieBreak) Vector {
	out := New(a.dim)
	a.MajorityInto(tie, out)
	return out
}

// MajorityInto writes the majority bundle into dst without allocating; dst
// is fully overwritten. It panics on dimension mismatch or if nothing has
// been added. This is the destination-passing form used by the
// zero-allocation encode path.
func (a *Accumulator) MajorityInto(tie TieBreak, dst Vector) {
	if a.total == 0 {
		panic("hv: Majority of empty accumulator")
	}
	if dst.dim != a.dim {
		panic(fmt.Sprintf("hv: accumulator dim %d, dst dim %d", a.dim, dst.dim))
	}
	// 2*count > total  <=>  count >= total/2+1; a tie (2*count == total,
	// total even) is count == total/2.
	k := a.total/2 + 1
	if a.total%2 == 0 && tie == TieToOne {
		k = a.total / 2
	}
	a.thresholdInto(k, dst)
}

// thresholdInto sets dst bit i iff the count at position i is at least k,
// for 1 <= k <= total. With np planes every count is below 1<<np, so
// count >= k exactly when count + (1<<np - k) carries out of the top
// plane. Adding that constant plane by plane, least significant first,
// needs only the running carry: a plane where the constant has a 1
// carries if the count bit or the carry is set, a plane where it has a 0
// only if both are. Positions past dim count zero and never carry.
func (a *Accumulator) thresholdInto(k int, dst Vector) {
	m := 1<<a.np - k
	out := dst.words
	clear(out)
	for p := 0; p < a.np; p++ {
		plane := a.planes[p*a.nw : (p+1)*a.nw]
		plane = plane[:len(out)]
		if m>>p&1 == 1 {
			for w, c := range plane {
				out[w] |= c
			}
		} else {
			for w, c := range plane {
				out[w] &= c
			}
		}
	}
}

// Reset empties the accumulator for reuse without releasing its planes;
// Add clears each plane as it comes back into use.
func (a *Accumulator) Reset() {
	a.planes = a.planes[:0]
	a.np = 0
	a.total = 0
}
