package obs

import "sync"

// Ring is a bounded, mutex-guarded ring of the most recent entries: once
// full, each Push evicts the oldest. It backs every recent-event view —
// the /debug/traces recent ring, the /debug/audit recent events, and the
// profile capture ring. Safe for concurrent use.
type Ring[T any] struct {
	mu  sync.Mutex
	buf []T
	n   int // total pushed; buf[(n-1)%len(buf)] is the newest
}

// NewRing returns a ring holding up to capacity entries (min 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push stores v as the newest entry.
func (r *Ring[T]) Push(v T) {
	r.mu.Lock()
	r.buf[r.n%len(r.buf)] = v
	r.n++
	r.mu.Unlock()
}

// Len reports how many entries the ring holds.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return min(r.n, len(r.buf))
}

// Newest copies out the held entries, newest first.
func (r *Ring[T]) Newest() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, min(r.n, len(r.buf)))
	for i := range out {
		out[i] = r.buf[(r.n-1-i)%len(r.buf)]
	}
	return out
}
