package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/obs"
	"hdfe/internal/registry"
)

// ErrClosed is returned by submitTimed once the batcher has begun
// shutting down.
var ErrClosed = errors.New("serve: batcher closed")

// ErrQueueFull is returned by submitTimed when the batcher queue cannot
// take another request. With the admission gate sized at or below the
// queue depth this cannot happen; it is the backstop that keeps a submit
// non-blocking if the gate is configured larger than the queue.
var ErrQueueFull = errors.New("serve: batcher queue full")

// BatchTimings is the per-request cost breakdown the batch loop reports
// back to each submitter: its amortized share of the batch's encode and
// distance time, and the batch size it was scored in. The submitter
// counts the rest of its wait as batch_wait.
type BatchTimings struct {
	Encode   time.Duration // batch encode time / batch size
	Distance time.Duration // batch distance time / batch size
	Size     int
}

// request is one queued single-record scoring request. resp is buffered so
// the batch loop never blocks on a caller that gave up (context expiry).
// The loop writes timings and the scoring model's state before sending on
// resp, so a submitter that received its score may read them race-free; a
// submitter that timed out never looks. ctx is the submitter's deadline:
// the loop consults it after a batch forms and abandons records already
// past their budget before any encode/score work is spent on them.
type request struct {
	ctx     context.Context
	row     []float64
	tc      obs.TraceContext // the submitter's W3C trace identity (may be zero)
	timings BatchTimings
	st      *modelState // the model that scored this request
	resp    chan float64
}

// Batcher coalesces concurrent single-record scoring requests into
// ScoreBatch calls against whatever model is active when each batch is
// scored. It is work-conserving: the first queued request opens a batch
// that takes whatever else is already queued, up to maxBatch, and is
// scored at once, with no timer. Batches form under load because
// requests pile up while the previous batch is scored (group commit).
// One goroutine runs the batches sequentially on recycled row/score
// buffers, acquiring the active model exactly once per batch — so every
// record in a batch is scored by the same model version even while a
// hot-swap is in flight, and a retired model's drain waits for the
// batch that holds it.
type Batcher struct {
	reg      *registry.Registry
	shadow   *shadowScorer // nil disables shadow comparison
	maxBatch int
	metrics  *Metrics
	chaos    *chaos.Injector // nil in production: one branch per batch
	acc      obs.StageAccum  // reused per batch; loop-goroutine owned between resets

	mu     sync.RWMutex // guards closed vs. enqueue, so close(reqs) is safe
	closed bool
	reqs   chan *request
	done   chan struct{}
}

// newBatcher starts a batcher over the registry's active slot, which
// must already be populated. maxBatch <= 0 defaults to 32; queueDepth
// <= 0 defaults to 4*maxBatch. metrics, shadow, and inj may be nil.
func newBatcher(reg *registry.Registry, maxBatch int, queueDepth int, metrics *Metrics, shadow *shadowScorer, inj *chaos.Injector) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 32
	}
	if queueDepth <= 0 {
		queueDepth = 4 * maxBatch
	}
	b := &Batcher{
		reg:      reg,
		shadow:   shadow,
		maxBatch: maxBatch,
		metrics:  metrics,
		chaos:    inj,
		reqs:     make(chan *request, queueDepth),
		done:     make(chan struct{}),
	}
	go b.loop()
	return b
}

// QueueDepth reports how many accepted requests are waiting for the
// batch loop — the backlog gauge for /metrics.
func (b *Batcher) QueueDepth() int { return len(b.reqs) }

// Draining reports whether the batcher has stopped accepting requests
// (Close was called). Load balancers read this through /healthz.
func (b *Batcher) Draining() bool {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.closed
}

// submitTimed queues one record for scoring and blocks until the batch it
// lands in has been scored, ctx expires, or the batcher closes. It
// returns the score, the request's per-stage cost breakdown, and the
// state of the model that scored it (both zero/nil on error). The
// returned state is for attribution — drift observation, labels, trace
// tagging — and carries no scoring reference. tc is the submitter's
// trace identity, threaded through the microbatch so the shadow worker
// can join its comparison back to this request's trace. The row is read
// by the batch loop, so callers must not reuse it until submitTimed
// returns.
func (b *Batcher) submitTimed(ctx context.Context, row []float64, tc obs.TraceContext) (float64, BatchTimings, *modelState, error) {
	req := &request{ctx: ctx, row: row, tc: tc, resp: make(chan float64, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return 0, BatchTimings{}, nil, ErrClosed
	}
	// Enqueue under the read lock: Close takes the write lock before
	// closing reqs, so no send can race the close. The enqueue does not
	// block on a full queue — admission happened upstream, so a full
	// queue means the gate was configured larger than the queue depth,
	// and the overflow is shed rather than parked.
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		return 0, BatchTimings{}, nil, ctx.Err()
	default:
		b.mu.RUnlock()
		return 0, BatchTimings{}, nil, ErrQueueFull
	}
	select {
	case score := <-req.resp:
		return score, req.timings, req.st, nil
	case <-ctx.Done():
		// The loop still scores the request; the buffered resp channel
		// absorbs the answer nobody is waiting for.
		return 0, BatchTimings{}, nil, ctx.Err()
	}
}

// Close stops accepting new requests, scores everything already queued,
// and waits for the batch loop to exit. Safe to call more than once.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.reqs)
	<-b.done
}

// loop is the single batch-forming goroutine. Closing reqs drains it: a
// closed channel still delivers everything buffered before reporting
// !ok, so no accepted request is dropped on shutdown.
func (b *Batcher) loop() {
	defer close(b.done)
	var (
		batch []*request
		rows  [][]float64
		tcs   []obs.TraceContext
		dst   []float64
	)
	for {
		first, ok := <-b.reqs
		if !ok {
			return
		}
		batch = append(batch[:0], first)
	collect:
		for len(batch) < b.maxBatch {
			select {
			case r, ok := <-b.reqs:
				if !ok {
					break collect
				}
				batch = append(batch, r)
			default: // queue empty: score what is in hand now
				break collect
			}
		}
		// Fault seam: a configured stall lands here, after the batch forms
		// and before the deadline check below — so requests whose budget a
		// stalled stage consumed are shed without encode/score work, which
		// is exactly what the chaos regression suite asserts.
		_ = b.chaos.Inject(chaos.PointBatch)
		// Deadline shed: drop records already past their budget. Their
		// submitters have returned (or are returning) via ctx.Done(); the
		// buffered resp channel means nobody needs an answer, and the
		// encode/score cost is saved entirely.
		rows = rows[:0]
		tcs = tcs[:0]
		alive := 0
		for _, r := range batch {
			if r.ctx != nil && r.ctx.Err() != nil {
				if b.metrics != nil {
					b.metrics.Shed(ShedDeadline)
				}
				continue
			}
			batch[alive] = r
			alive++
			rows = append(rows, r.row)
			tcs = append(tcs, r.tc)
		}
		batch = batch[:alive]
		if len(batch) == 0 {
			continue
		}
		// Acquire the active model once for the whole batch: every record
		// is scored by the same version, and a model swapped out mid-batch
		// stays alive (its Drained channel open) until the reference is
		// released below.
		m := b.reg.AcquireActive()
		st := m.State().(*modelState)
		b.acc.Reset()
		dst = st.scorer.ScoreBatchIntoObserved(rows, dst, &b.acc)
		if b.metrics != nil {
			b.metrics.ObserveBatch(len(batch))
		}
		if b.shadow != nil {
			// submit deep-copies rows, scores, and trace contexts before
			// returning, so the response sends below may hand row ownership
			// back to callers.
			b.shadow.submit(rows, dst, tcs)
		}
		encTotal, distTotal, _ := b.acc.Totals()
		n := time.Duration(len(batch))
		encPer, distPer := encTotal/n, distTotal/n
		for i, r := range batch {
			r.timings = BatchTimings{
				Encode:   encPer,
				Distance: distPer,
				Size:     len(batch),
			}
			r.st = st
			r.resp <- dst[i]
		}
		m.Release()
	}
}
