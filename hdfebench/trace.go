package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/core"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// coreCall is one ScoreBatchIntoObserved call seen by the scorer wrapper:
// its span, the content keys of the rows it scored (how requests find the
// microbatch that carried them) and its per-record stage spans.
type coreCall struct {
	span     span
	keys     []uint64
	children []span
}

// tracer keeps spans in memory for the traced pass and writes them out
// when the run ends.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	calls  []*coreCall
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

// reset drops what the warm-up recorded.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans, t.calls = nil, nil
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// handler wraps Server.Handler: one "serve.handler" span per scoring
// request, keyed by the X-Request-Id the generator sends.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		req, err := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64)
		if err != nil {
			return // health checks carry no request id
		}
		t.add(span{ID: t.id(), Name: "serve.handler", Req: req, Start: start, End: end})
	})
}

// tracedScorer is the core.Scorer handed to serve.New in the traced
// pass: it times every ScoreBatchIntoObserved call and taps the stage
// observer for per-record encode and distance spans.
type tracedScorer struct {
	core.Scorer
	t *tracer
}

func (s tracedScorer) ScoreBatchIntoObserved(rows [][]float64, dst []float64, o core.StageObserver) []float64 {
	call := &coreCall{span: span{ID: s.t.id(), Name: "core.score_batch"}}
	tap := &stageTap{inner: o, t: s.t, call: call}
	call.span.Start = s.t.now()
	dst = s.Scorer.ScoreBatchIntoObserved(rows, dst, tap)
	call.span.End = s.t.now()
	call.keys = make([]uint64, len(rows))
	for i, row := range rows {
		call.keys[i] = rowKey(row)
	}
	s.t.mu.Lock()
	s.t.calls = append(s.t.calls, call)
	s.t.mu.Unlock()
	return dst
}

// stageTap forwards per-record stage timings to the server's observer and
// turns each into an encode and a distance span ending at the report.
type stageTap struct {
	inner core.StageObserver
	t     *tracer
	mu    sync.Mutex
	call  *coreCall
}

func (s *stageTap) ObserveRecord(enc, dist time.Duration) {
	end := s.t.now()
	if s.inner != nil {
		s.inner.ObserveRecord(enc, dist)
	}
	mid := end - int64(dist)
	s.mu.Lock()
	s.call.children = append(s.call.children,
		span{Name: "encode.record", Start: mid - int64(enc), End: mid},
		span{Name: "distance.record", Start: mid, End: end})
	s.mu.Unlock()
}

// rowKey identifies a record by content (the server scores validated
// copies, so pointers do not survive the trip).
func rowKey(row []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

// union is the length of the union of the intervals in ss clipped to
// [lo, hi].
func union(ss []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ss))
	for _, s := range ss {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sortBy(ivs, func(x iv) int64 { return x.a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes is one request's blocking path split by layer, in ns.
type selfTimes map[string]int64

// analyzeServing links each generator span to its handler span and to
// the core call that carried its first record, and splits the request's
// time into layer self times: loadgen (generator and transport), serve
// (handler minus the core call: decode, admission, validation, batch
// wait, respond, telemetry), core (the call minus its stage spans), and
// encode and distance (the stage spans' union, split by their summed
// shares, since batch workers run them in parallel). It also sets the
// serve and core per-layer metrics and gives every span its parent.
func (t *tracer) analyzeServing(rep *report, firstKey func(req int64) uint64) []selfTimes {
	handlers := map[int64]*span{}
	var gens []*span
	for i := range t.spans {
		s := &t.spans[i]
		switch s.Name {
		case "serve.handler":
			handlers[s.Req] = s
		case "loadgen.request":
			gens = append(gens, s)
		}
	}
	byKey := map[uint64][]*coreCall{}
	for _, c := range t.calls {
		for _, k := range c.keys {
			byKey[k] = append(byKey[k], c)
		}
	}
	var out []selfTimes
	var handlerUs, preUs, postUs, clientUs []float64
	unmatched := 0
	for _, g := range gens {
		h := handlers[g.Req]
		if h == nil {
			unmatched++
			continue
		}
		h.Parent = g.ID
		var call *coreCall
		for _, c := range byKey[firstKey(g.Req)] {
			if c.span.Start >= h.Start && c.span.End <= h.End {
				call = c
				break
			}
		}
		if call == nil {
			unmatched++
			continue
		}
		if call.span.Parent == 0 {
			call.span.Parent, call.span.Req = h.ID, h.Req
		}
		covered := union(call.children, call.span.Start, call.span.End)
		var enc, dist int64
		for _, c := range call.children {
			if c.Name == "encode.record" {
				enc += c.dur()
			} else {
				dist += c.dur()
			}
		}
		encSelf := covered
		if enc+dist > 0 {
			encSelf = int64(float64(covered) * float64(enc) / float64(enc+dist))
		}
		st := selfTimes{
			"loadgen":  g.dur() - h.dur(),
			"serve":    h.dur() - call.span.dur(),
			"core":     call.span.dur() - covered,
			"encode":   encSelf,
			"distance": covered - encSelf,
		}
		out = append(out, st)
		handlerUs = append(handlerUs, float64(h.dur())/1e3)
		preUs = append(preUs, float64(call.span.Start-h.Start)/1e3)
		postUs = append(postUs, float64(h.End-call.span.End)/1e3)
		clientUs = append(clientUs, float64(st["loadgen"])/1e3)
	}
	if unmatched > 0 {
		rep.note("trace: %d of %d requests could not be linked to a handler and core span", unmatched, len(gens))
	}
	rep.set("serve.handler_p50_us", median(handlerUs))
	rep.set("serve.pre_core_us", median(preUs))
	rep.set("serve.post_core_us", median(postUs))
	rep.set("loadgen.client_us", median(clientUs))
	var rows, callNs, encNs, distNs int64
	for _, c := range t.calls {
		rows += int64(len(c.keys))
		callNs += c.span.dur()
		for _, ch := range c.children {
			if ch.Name == "encode.record" {
				encNs += ch.dur()
			} else {
				distNs += ch.dur()
			}
		}
	}
	if rows > 0 {
		rep.set("serve.batch_records_mean", float64(rows)/float64(len(t.calls)))
		rep.set("core.score_batch_us_per_record", float64(callNs)/1e3/float64(rows))
		rep.set("core.encode_us_per_record", float64(encNs)/1e3/float64(rows))
		rep.set("core.distance_us_per_record", float64(distNs)/1e3/float64(rows))
	}
	return out
}

// reportSelf sets the median self time of each layer, their sum, its gap
// to the untraced median latency, and the tracing overhead (traced minus
// untraced median latency).
func reportSelf(rep *report, per []selfTimes, untracedP50Ms, tracedP50Ms float64) {
	layers := map[string][]float64{}
	for _, st := range per {
		for layer, ns := range st {
			layers[layer] = append(layers[layer], float64(ns)/1e3)
		}
	}
	sumUs := 0.0
	for _, layer := range sortedKeys(layers) {
		m := median(layers[layer])
		rep.set("self."+layer+"_us", m)
		sumUs += m
	}
	rep.set("trace.layer_sum_ms", sumUs/1e3)
	if untracedP50Ms > 0 {
		rep.set("trace.layer_gap_pct", 100*(sumUs/1e3-untracedP50Ms)/untracedP50Ms)
	}
	rep.set("trace.overhead_ms", tracedP50Ms-untracedP50Ms)
	rep.note("trace: layer self-time medians sum to %.4g ms against an untraced p50 of %.4g ms; traced p50 %.4g ms",
		sumUs/1e3, untracedP50Ms, tracedP50Ms)
}

// write dumps every span, stage spans included, as JSON lines.
func (t *tracer) write(path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	n := 0
	emit := func(s span) {
		if err == nil {
			err = enc.Encode(s)
			n++
		}
	}
	for _, s := range t.spans {
		emit(s)
	}
	for _, c := range t.calls {
		emit(c.span)
		for _, ch := range c.children {
			ch.ID, ch.Parent, ch.Req = t.id(), c.span.ID, c.span.Req
			emit(ch)
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return n, fmt.Errorf("writing spans: %w", err)
	}
	return n, nil
}
