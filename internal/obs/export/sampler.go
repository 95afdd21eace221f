package export

import (
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/obs"
	"hdfe/internal/rng"
)

// Keep decisions, the label values of hdfe_trace_sampled_total.
const (
	KeepError = "error" // 5xx response
	KeepShed  = "shed"  // overload/deadline shed (429/503/504 or a recorded reason)
	KeepSlow  = "slow"  // total latency at or past the slow cutoff
	KeepHead  = "head"  // won the head-sampling roll
	KeepDrop  = "drop"  // not exported
)

// SampleReasons lists every decision label, for stable metric
// exposition even before the first trace.
var SampleReasons = []string{KeepError, KeepShed, KeepSlow, KeepHead, KeepDrop}

// Sampler makes the tail-based keep/drop decision for finished traces.
// Head sampling keeps a seeded-pseudorandom fraction of ordinary
// traffic; on top of that, every trace that is slow (at or past the
// cutoff the slow callback reports — typically the live p99), an error,
// or a shed is always kept. The interesting 1% survives any fraction.
type Sampler struct {
	fraction float64
	slow     func() time.Duration // nil or 0: slow keep disabled

	mu  sync.Mutex
	src *rng.Source

	decisions [numDecisions]atomic.Uint64
}

const numDecisions = 5

var decisionIdx = map[string]int{KeepError: 0, KeepShed: 1, KeepSlow: 2, KeepHead: 3, KeepDrop: 4}

// NewSampler builds a sampler keeping fraction of ordinary traces
// (clamped to [0,1]) with the given seed; slow may be nil.
func NewSampler(fraction float64, seed uint64, slow func() time.Duration) *Sampler {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	return &Sampler{fraction: fraction, slow: slow, src: rng.New(seed)}
}

// Keep decides whether t is exported and why. Nil-safe: a nil sampler
// keeps nothing.
func (s *Sampler) Keep(t obs.Trace) (bool, string) {
	if s == nil {
		return false, KeepDrop
	}
	keep, why := s.decide(t)
	s.decisions[decisionIdx[why]].Add(1)
	return keep, why
}

func (s *Sampler) decide(t obs.Trace) (bool, string) {
	if t.Status >= 500 {
		return true, KeepError
	}
	if t.Outcome == obs.OutcomeShed || t.Status == 429 {
		return true, KeepShed
	}
	if s.slow != nil {
		if cut := s.slow(); cut > 0 && t.Total >= cut {
			return true, KeepSlow
		}
	}
	if s.fraction >= 1 {
		return true, KeepHead
	}
	if s.fraction > 0 {
		s.mu.Lock()
		roll := s.src.Float64()
		s.mu.Unlock()
		if roll < s.fraction {
			return true, KeepHead
		}
	}
	return false, KeepDrop
}

// Decisions reports how many traces received each decision label.
// Nil-safe (all zero).
func (s *Sampler) Decisions(label string) uint64 {
	if s == nil {
		return 0
	}
	i, ok := decisionIdx[label]
	if !ok {
		return 0
	}
	return s.decisions[i].Load()
}
