package obs

import (
	"sync"
	"testing"
)

func TestRingNewestFirstAndEviction(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Newest(); len(got) != 0 || r.Len() != 0 {
		t.Fatalf("empty ring: %v, len %d", got, r.Len())
	}
	r.Push(1)
	r.Push(2)
	if got := r.Newest(); len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("before wrap: %v, want [2 1]", got)
	}
	for v := 3; v <= 7; v++ {
		r.Push(v)
	}
	if got := r.Newest(); r.Len() != 3 || len(got) != 3 || got[0] != 7 || got[1] != 6 || got[2] != 5 {
		t.Fatalf("after wrap: %v (len %d), want [7 6 5]", got, r.Len())
	}
	one := NewRing[string](0) // capacity clamps to 1
	one.Push("a")
	one.Push("b")
	if got := one.Newest(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("min capacity: %v, want [b]", got)
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewRing[int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Push(i)
				_ = r.Newest()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Fatalf("len %d, want 16", r.Len())
	}
}
