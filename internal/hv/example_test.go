package hv_test

import (
	"fmt"

	"hdfe/internal/hv"
	"hdfe/internal/rng"
)

// ExampleBundle demonstrates majority voting with the paper's
// ties-to-one rule.
func ExampleBundle() {
	a := hv.FromBits([]uint8{1, 1, 0, 0})
	b := hv.FromBits([]uint8{1, 0, 1, 0})
	c := hv.FromBits([]uint8{0, 1, 1, 0})
	fmt.Println(hv.Bundle([]hv.Vector{a, b, c}, hv.TieToOne))
	// Output:
	// 1110
}

// ExampleHamming shows the distance metric the classifier uses.
func ExampleHamming() {
	a := hv.FromBits([]uint8{1, 0, 1, 0, 1})
	b := hv.FromBits([]uint8{1, 1, 1, 1, 1})
	fmt.Println(hv.Hamming(a, b))
	// Output:
	// 2
}

// ExampleOrthogonal builds the paper's binary-feature codeword pair: a
// random seed and a vector exactly D/2 bits away.
func ExampleOrthogonal() {
	r := rng.New(1)
	seed := hv.RandBalanced(r, 10000)
	other := hv.Orthogonal(seed, r)
	fmt.Println(hv.Hamming(seed, other))
	// Output:
	// 5000
}
