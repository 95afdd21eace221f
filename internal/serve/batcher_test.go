package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/registry"
	"hdfe/internal/synth"
)

// testBatcher builds a batcher over a single-model registry, the shape
// every pre-lifecycle test used. The queue is sized for the suite's
// highest submit concurrency: in production the admission gate keeps
// concurrent submits at or below the queue depth, and these tests
// bypass the gate.
func testBatcher(t testing.TB, dep *core.Deployment, maxBatch int, m *Metrics) *Batcher {
	t.Helper()
	return testBatcherChaos(t, dep, maxBatch, m, nil)
}

// testBatcherChaos is testBatcher with a fault injector on the batch loop.
func testBatcherChaos(t testing.TB, dep *core.Deployment, maxBatch int, m *Metrics, inj *chaos.Injector) *Batcher {
	t.Helper()
	reg := registry.New()
	model := reg.Adopt(dep, "batcher-test", "", "")
	newModelState(model, Config{}.withDefaults())
	reg.Promote(model)
	return newBatcher(reg, maxBatch, 128, m, nil, inj)
}

func TestBatcherScoresMatchDirect(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 16, nil)
	defer b.Close()

	d := synth.PimaM(7)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := d.X[i%len(d.X)]
			got, _, _, err := b.submitTimed(context.Background(), row, obs.TraceContext{})
			if err != nil {
				errs <- err
				return
			}
			if want := dep.Score(row); got != want {
				t.Errorf("row %d: batched %v, direct %v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestBatcherRespectsMaxBatch(t *testing.T) {
	dep := testDeployment(t, 128)
	m := NewMetrics()
	// A stall at the batch point lets requests pile up behind every
	// batch, so batches close on size.
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, P: 1, Delay: 20 * time.Millisecond})
	b := testBatcherChaos(t, dep, 4, m, inj)
	defer b.Close()

	row := synth.PimaM(7).X[0]
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := b.submitTimed(context.Background(), row, obs.TraceContext{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Batches < 32/4 {
		t.Fatalf("%d batches for 32 requests at maxBatch 4", snap.Batches)
	}
	for _, bucket := range snap.BatchSizes {
		switch bucket.Size {
		case "5-8", "9-16", "17-32", "33-64", "65+":
			if bucket.Count != 0 {
				t.Errorf("batch of size %s recorded beyond maxBatch 4", bucket.Size)
			}
		}
	}
}

func TestBatcherSubmitAfterCloseFails(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 8, nil)
	b.Close()
	b.Close() // idempotent
	if _, _, _, err := b.submitTimed(context.Background(), synth.PimaM(7).X[0], obs.TraceContext{}); err != ErrClosed {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

func TestBatcherSubmitHonoursContext(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 8, nil)
	defer b.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := b.submitTimed(ctx, synth.PimaM(7).X[0], obs.TraceContext{}); err != context.Canceled {
		t.Fatalf("submit with cancelled context: %v, want context.Canceled", err)
	}
}

// TestBatcherSubmitTimedReportsStages pins the per-request cost
// breakdown the batch loop hands back: amortized encode/distance
// shares, the batch size, and the scoring model's state.
func TestBatcherSubmitTimedReportsStages(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 16, nil)
	defer b.Close()

	d := synth.PimaM(7)
	var wg sync.WaitGroup
	timings := make(chan BatchTimings, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			row := d.X[i%len(d.X)]
			got, bt, st, err := b.submitTimed(context.Background(), row, obs.TraceContext{})
			if err != nil {
				t.Error(err)
				return
			}
			if want := dep.Score(row); got != want {
				t.Errorf("row %d: timed submit %v, direct %v", i, got, want)
			}
			if st == nil || st.version() != 1 {
				t.Errorf("row %d: scored by model state %v, want version 1", i, st)
			}
			timings <- bt
		}(i)
	}
	wg.Wait()
	close(timings)
	n := 0
	for bt := range timings {
		n++
		if bt.Size < 1 || bt.Size > 16 {
			t.Errorf("batch size %d outside [1, 16]", bt.Size)
		}
		if bt.Encode <= 0 || bt.Distance < 0 {
			t.Errorf("timings %+v, want encode>0, distance>=0", bt)
		}
	}
	if n != 32 {
		t.Fatalf("%d timing reports for 32 submits", n)
	}
}

func TestBatcherQueueDepthAndDraining(t *testing.T) {
	dep := testDeployment(t, 128)
	b := testBatcher(t, dep, 8, nil)
	if b.Draining() {
		t.Error("fresh batcher reports draining")
	}
	if d := b.QueueDepth(); d != 0 {
		t.Errorf("idle queue depth %d", d)
	}
	b.Close()
	if !b.Draining() {
		t.Error("closed batcher not draining")
	}
}

// TestBatcherCloseDrainsQueued pins the drain guarantee directly at the
// batcher level: every request queued before Close is scored.
func TestBatcherCloseDrainsQueued(t *testing.T) {
	const queued = 48
	dep := testDeployment(t, 128)
	row := synth.PimaM(7).X[0]
	want := dep.Score(row)
	// The stall only has to outlast the submits reaching the queue; when
	// it does not, the attempt is repeated with a longer stall.
	for stall := 200 * time.Millisecond; !closeDrainsQueuedOnce(t, dep, row, want, queued, stall); stall *= 2 {
		if stall > 10*time.Second {
			t.Fatalf("%d submits never queued behind a %v stall", queued-1, stall)
		}
	}
}

// closeDrainsQueuedOnce runs one drain attempt: a chaos stall holds the
// loop on a lone first request while the rest queue behind it, then
// Close must score every queued request. It returns false, asserting
// nothing, when the stall ran out before the rest were all queued.
func closeDrainsQueuedOnce(t *testing.T, dep *core.Deployment, row []float64, want float64, queued int, stall time.Duration) bool {
	t.Helper()
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, P: 1, Delay: stall})
	b := testBatcherChaos(t, dep, 1024, nil, inj)

	var wg sync.WaitGroup
	scores := make(chan float64, queued)
	errs := make(chan error, queued)
	submit := func() {
		defer wg.Done()
		got, _, _, err := b.submitTimed(context.Background(), row, obs.TraceContext{})
		if err != nil {
			errs <- err
			return
		}
		scores <- got
	}
	wg.Add(1)
	go submit()
	// Fired counts the consultation before its stall sleeps: the loop
	// now holds a batch of exactly the first request.
	for inj.Fired(chaos.PointBatch) == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < queued; i++ {
		wg.Add(1)
		go submit()
	}
	for b.QueueDepth() < queued-1 {
		if inj.Fired(chaos.PointBatch) > 1 {
			wg.Wait()
			b.Close()
			return false
		}
		time.Sleep(time.Millisecond)
	}
	// Every other request sits in the queue behind the stalled batch:
	// Close must score them, not abandon them.
	b.Close()
	wg.Wait()
	close(scores)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	n := 0
	for got := range scores {
		n++
		if got != want {
			t.Errorf("drained score %v, want %v", got, want)
		}
	}
	if n != queued {
		t.Fatalf("%d of %d queued requests answered after Close", n, queued)
	}
	return true
}

// TestBatcherGroupCommit pins how the default, timer-free batcher still
// forms batches: requests that queue while the loop is busy are taken
// together as the next batch, up to maxBatch. It asserts on observed
// ordering only. A chaos stall holds the loop on a lone first request;
// n more requests are submitted; once all n are seen queued while the
// first submit has not yet returned, the next batch must hold
// min(n, maxBatch) of them.
func TestBatcherGroupCommit(t *testing.T) {
	const maxBatch = 8
	dep := testDeployment(t, 128)
	row := synth.PimaM(7).X[0]
	want := dep.Score(row)
	for _, n := range []int{5, maxBatch + 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			// The stall only has to outlast n submits reaching the queue.
			// When it does not, the ordering under test was never set up,
			// so the attempt is repeated with a longer stall instead of
			// asserting anything about the clock.
			for stall := 50 * time.Millisecond; ; stall *= 2 {
				first, rest, ok := groupCommitOnce(t, dep, row, want, n, maxBatch, stall)
				if !ok {
					if stall > 10*time.Second {
						t.Fatalf("%d submits never queued behind a %v stall", n, stall)
					}
					continue
				}
				if first.Size != 1 {
					t.Errorf("lone first request scored in a batch of %d, want 1", first.Size)
				}
				sizes := map[int]int{}
				for _, bt := range rest {
					sizes[bt.Size]++
				}
				wantSizes := map[int]int{min(n, maxBatch): min(n, maxBatch)}
				if n > maxBatch {
					wantSizes[n-maxBatch] = n - maxBatch
				}
				if !maps.Equal(sizes, wantSizes) {
					t.Errorf("records per batch size %v, want %v", sizes, wantSizes)
				}
				return
			}
		})
	}
}

// groupCommitOnce runs one group-commit attempt and returns the first
// request's timings and the other n requests' timings. ok is false when
// the first submit returned before all n requests were seen queued.
func groupCommitOnce(t *testing.T, dep *core.Deployment, row []float64, want float64, n, maxBatch int, stall time.Duration) (first BatchTimings, rest []BatchTimings, ok bool) {
	t.Helper()
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, P: 1, Delay: stall})
	b := testBatcherChaos(t, dep, maxBatch, nil, inj)
	defer b.Close()

	submit := func() BatchTimings {
		got, bt, _, err := b.submitTimed(context.Background(), row, obs.TraceContext{})
		if err != nil {
			t.Error(err)
		} else if got != want {
			t.Errorf("score %v, want %v", got, want)
		}
		return bt
	}
	firstDone := make(chan struct{})
	go func() {
		defer close(firstDone)
		first = submit()
	}()
	// Fired counts the consultation before its stall sleeps: the loop
	// now holds a batch of exactly the first request.
	for inj.Fired(chaos.PointBatch) == 0 {
		time.Sleep(50 * time.Microsecond)
	}
	var wg sync.WaitGroup
	timings := make(chan BatchTimings, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timings <- submit()
		}()
	}
	ok = true
	for b.QueueDepth() < n && ok {
		select {
		case <-firstDone:
			ok = false
		default:
			time.Sleep(50 * time.Microsecond)
		}
	}
	select {
	case <-firstDone:
		ok = false
	default:
	}
	wg.Wait()
	<-firstDone
	close(timings)
	for bt := range timings {
		rest = append(rest, bt)
	}
	return first, rest, ok
}

// TestServerDefaultScoresLoneRequestsAlone pins that the batcher never
// lingers: with a zero Config, each of a sequence of lone requests is
// scored in a batch of its own.
func TestServerDefaultScoresLoneRequestsAlone(t *testing.T) {
	const lone = 12
	dep := testDeployment(t, 128)
	s := New(dep, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d := synth.PimaM(7)
	for i := 0; i < lone; i++ {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(d.X[i]...)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr scoreResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if want := dep.Score(d.X[i]); sr.Score != want {
			t.Fatalf("request %d: served %v, direct %v", i, sr.Score, want)
		}
	}
	snap := s.metrics.Snapshot()
	if snap.Batches != lone || snap.BatchSizes[0].Size != "1" || snap.BatchSizes[0].Count != lone {
		t.Fatalf("%d batches, size histogram %v; want %d batches of 1", snap.Batches, snap.BatchSizes, lone)
	}
}

// BenchmarkBatcherLoneSubmit times one submit with no concurrent load
// through a batcher built from the default Config: the latency a lone
// request pays for the microbatcher.
func BenchmarkBatcherLoneSubmit(b *testing.B) {
	dep := testDeployment(b, 128)
	cfg := Config{}.withDefaults()
	bt := testBatcher(b, dep, cfg.MaxBatch, nil)
	defer bt.Close()
	row := synth.PimaM(7).X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := bt.submitTimed(context.Background(), row, obs.TraceContext{}); err != nil {
			b.Fatal(err)
		}
	}
}
