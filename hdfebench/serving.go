package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/obs/audit"
	"hdfe/internal/obs/prof"
	"hdfe/internal/serve"
)

// clients is the generator's connection and goroutine count: two, or
// fewer on a machine with fewer cores, so the generator never outnumbers
// the server's processors.
var clients = min(2, runtime.NumCPU())

const (
	// openRate is score-open's schedule, well below saturation: the
	// batch wait, not a queue, sets the latency.
	openRate = 250.0
	// batchRecords is batch-closed's records per request.
	batchRecords = 64
	// setupReps is how many times a serving run sets up; setup_s is the
	// median.
	setupReps = 7
)

// servingSpec describes one serving workload.
type servingSpec struct {
	cohort     func(seed uint64) *dataset.Dataset
	path       string
	perRequest int  // records per request
	open       bool // open-loop schedule at openRate, else closed loop
	audit      bool
}

var (
	scoreOpen   = servingSpec{cohort: pimaCohort, path: "/v1/score", perRequest: 1, open: true, audit: true}
	batchClosed = servingSpec{cohort: sylhetCohort, path: "/v1/score/batch", perRequest: batchRecords}
)

// passCfg varies one serving pass.
type passCfg struct {
	auditOff bool    // override the spec's audit trail to off
	profOff  bool    // Prof.Interval < 0: no scheduled captures
	tracer   *tracer // non-nil: traced pass
}

// genReq is one request body and the cohort records it carries.
type genReq struct {
	body []byte
	recs []int
}

// servingRun is one serving workload's state across its passes.
type servingRun struct {
	opts   options
	spec   servingSpec
	rep    *report
	ds     *dataset.Dataset
	dep    *core.Deployment
	want   []float64      // in-process Deployment.Score per record
	served []atomic.Int32 // served prediction + 1 per record, 0 if unseen
	reqs   []genReq
	client *http.Client
	slot   int // next request id; ids stay unique across passes
}

func newServingRun(opts options, spec servingSpec, rep *report) *servingRun {
	tr := &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	return &servingRun{opts: opts, spec: spec, rep: rep, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// build synthesizes the cohort and fits its deployment.
func (r *servingRun) build() error {
	r.ds = r.spec.cohort(r.opts.seed)
	dep, err := buildDeployment(r.ds, splitmix(r.opts.seed, streamEncoder))
	r.dep = dep
	return err
}

// prepare computes the expected scores and the request bodies, outside
// any timed interval.
func (r *servingRun) prepare() error {
	r.want = checkScores(r.rep, r.dep, r.ds)
	r.served = make([]atomic.Int32, len(r.ds.X))
	n := len(r.ds.X)
	order := rand.New(rand.NewPCG(splitmix(r.opts.seed, streamOrder), 0)).Perm(n)
	body := func(recs []int) ([]byte, error) {
		rows := make([][]float64, len(recs))
		for i, rec := range recs {
			rows[i] = r.ds.X[rec]
		}
		if r.spec.perRequest == 1 {
			return json.Marshal(map[string][]float64{"features": rows[0]})
		}
		return json.Marshal(map[string][][]float64{"records": rows})
	}
	// Request k carries records order[k*per .. k*per+per) mod n; after
	// lcm(n, per)/per requests the sequence repeats.
	count := n / gcd(n, r.spec.perRequest)
	r.reqs = make([]genReq, count)
	for k := range r.reqs {
		recs := make([]int, r.spec.perRequest)
		for j := range recs {
			recs[j] = order[(k*r.spec.perRequest+j)%n]
		}
		b, err := body(recs)
		if err != nil {
			return err
		}
		r.reqs[k] = genReq{body: b, recs: recs}
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// server is one in-process serve.Server behind a loopback listener.
type server struct {
	srv      *serve.Server
	hs       *http.Server
	url      string
	done     chan error
	audit    *audit.Log
	auditDir string
}

// boot starts a server for one pass: audit log (if on), serve.New with
// the zero Config apart from the seed-derived TraceSeed and the pass's
// settings, and an HTTP server on 127.0.0.1.
func (r *servingRun) boot(pc passCfg) (*server, error) {
	s := &server{done: make(chan error, 1)}
	cfg := serve.Config{TraceSeed: splitmix(r.opts.seed, streamTrace)}
	if pc.profOff {
		cfg.Prof.Interval = -1
	}
	if r.spec.audit && !pc.auditOff {
		dir, err := os.MkdirTemp(r.opts.out, "audit-*")
		if err != nil {
			return nil, err
		}
		log, err := audit.Open(audit.Config{Dir: dir, Fsync: audit.FsyncNone})
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		s.audit, s.auditDir, cfg.Audit = log, dir, log
	}
	var sc core.Scorer = r.dep
	if r.opts.corrupt == "score" {
		sc = corruptScorer{sc}
	}
	if pc.tracer != nil {
		sc = tracedScorer{Scorer: sc, t: pc.tracer}
	}
	s.srv = serve.New(sc, cfg)
	h := s.srv.Handler()
	if pc.tracer != nil {
		h = pc.tracer.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		os.RemoveAll(s.auditDir)
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: h}
	go func() { s.done <- s.hs.Serve(ln) }()
	if err := r.waitHealthy(s); err != nil {
		s.stop()
		os.RemoveAll(s.auditDir)
		return nil, err
	}
	return s, nil
}

func (r *servingRun) waitHealthy(s *server) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := r.client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the HTTP server, then closes the serve.Server (which closes
// its audit log last) and waits for the serving goroutine.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// setup times setupReps full set-ups (cohort synthesis, BuildDeployment,
// serve.New, /healthz 200) and keeps the last server running.
func (r *servingRun) setup(pc passCfg) (*server, error) {
	var times []float64
	var s *server
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(s.auditDir)
		}
		start := time.Now()
		if err := r.build(); err != nil {
			return nil, err
		}
		var err error
		if s, err = r.boot(pc); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	r.rep.set("setup_s", median(times))
	r.rep.note("setup: %d set-ups, median %.4g s, %v", setupReps, median(times), times)
	return s, r.prepare()
}

// sample is one request as the generator saw it.
type sample struct {
	lat, late time.Duration // from due (open) or send (closed) to the last body byte; send minus due
	done      time.Time
	records   int
	bad       int // records failed: transport, status or wrong output
}

// pass is one measured window.
type pass struct {
	samples  []sample
	win      *window
	records  int
	bad      int
	captures uint64 // profiler CPU captures that landed in the window
}

// latencies is each sample's latency, in ms.
func latencies(ss []sample) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.lat.Nanoseconds()) / 1e6
	}
	return xs
}

// measure runs a warm-up and the measured window against s, stops it,
// and checks the audit trail. Every request's failures are counted.
func (r *servingRun) measure(s *server, tr *tracer) (*pass, error) {
	warm := r.opts.seconds / 5
	if warm > time.Second {
		warm = time.Second
	}
	for _, smp := range r.load(s, warm, nil) {
		r.rep.attempted += smp.records
		r.rep.failed += smp.bad
	}
	if tr != nil {
		tr.reset()
	}
	before := s.srv.Profiler().CapturesTotal(prof.KindCPU)
	p := &pass{win: openWindow()}
	p.samples = r.load(s, r.opts.seconds, tr)
	p.win.close()
	p.captures = s.srv.Profiler().CapturesTotal(prof.KindCPU) - before
	for _, smp := range p.samples {
		p.records += smp.records - smp.bad
		p.bad += smp.bad
		r.rep.attempted += smp.records
		r.rep.failed += smp.bad
	}
	if p.bad > 0 {
		r.rep.note("FAIL: %d records failed in the window", p.bad)
	}
	if err := s.stop(); err != nil {
		return nil, err
	}
	r.client.CloseIdleConnections()
	if s.audit != nil {
		r.checkAudit(s, tr)
	}
	return p, nil
}

// checkAudit verifies the pass's hash chain and that it holds one scored
// event per scored record the server acknowledged, less those dropped.
func (r *servingRun) checkAudit(s *server, tr *tracer) {
	defer os.RemoveAll(s.auditDir)
	start := time.Now()
	res, err := audit.VerifyDir(s.auditDir)
	verifyMs := float64(time.Since(start).Nanoseconds()) / 1e6
	r.rep.check(err == nil, "audit chain: %v", err)
	scored := s.srv.Metrics().Snapshot().RecordsScored
	dropped := s.audit.Dropped()
	got := uint64(res.Outcomes[audit.OutcomeScored.String()])
	r.rep.check(got+dropped == scored, "audit: %d scored events + %d dropped, server scored %d", got, dropped, scored)
	if tr != nil {
		r.rep.set("audit.events", float64(res.Events))
		r.rep.set("audit.dropped", float64(dropped))
		r.rep.set("audit.verify_ms", verifyMs)
	}
}

// load drives the server for dur: open loop on the fixed schedule or
// closed loop, with clients goroutines either way.
func (r *servingRun) load(s *server, dur time.Duration, tr *tracer) []sample {
	var wg sync.WaitGroup
	var next atomic.Int64
	base := r.slot
	if r.spec.open {
		period := time.Duration(float64(time.Second) / openRate)
		n := int(dur / period)
		out := make([]sample, n)
		start := time.Now().Add(time.Millisecond)
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					due := start.Add(time.Duration(i) * period)
					time.Sleep(time.Until(due))
					out[i] = r.do(s, base+i, due, tr)
				}
			}()
		}
		wg.Wait()
		r.slot += n
		return out
	}
	deadline := time.Now().Add(dur)
	per := make([][]sample, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				per[w] = append(per[w], r.do(s, base+i, time.Now(), tr))
			}
		}(w)
	}
	wg.Wait()
	r.slot += int(next.Load())
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// scoredResponse covers both scoring routes' success bodies.
type scoredResponse struct {
	Score       float64   `json:"score"`
	Prediction  int       `json:"prediction"`
	Scores      []float64 `json:"scores"`
	Predictions []int     `json:"predictions"`
}

// do sends request slot and checks its answer: every served score must be
// Float64bits-equal to Deployment.Score of the same record, and every
// prediction its threshold.
func (r *servingRun) do(s *server, slot int, due time.Time, tr *tracer) sample {
	req := r.reqs[slot%len(r.reqs)]
	smp := sample{records: len(req.recs), bad: len(req.recs)}
	sent := time.Now()
	httpReq, err := http.NewRequest(http.MethodPost, s.url+r.spec.path, bytes.NewReader(req.body))
	if err != nil {
		return smp
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set("X-Request-Id", strconv.Itoa(slot))
	resp, err := r.client.Do(httpReq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	smp.lat, smp.late, smp.done = done.Sub(due), sent.Sub(due), done
	if tr != nil {
		tr.add(span{ID: tr.id(), Name: "loadgen.request", Req: int64(slot), Start: int64(due.Sub(tr.epoch)), End: int64(done.Sub(tr.epoch))})
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		return smp
	}
	var out scoredResponse
	if json.Unmarshal(body, &out) != nil {
		return smp
	}
	if r.spec.perRequest == 1 {
		out.Scores, out.Predictions = []float64{out.Score}, []int{out.Prediction}
	}
	if len(out.Scores) != len(req.recs) || len(out.Predictions) != len(req.recs) {
		return smp
	}
	smp.bad = 0
	for i, rec := range req.recs {
		if math.Float64bits(out.Scores[i]) != math.Float64bits(r.want[rec]) || out.Predictions[i] != predict(r.want[rec]) {
			smp.bad++
			continue
		}
		r.served[rec].Store(int32(out.Predictions[i]) + 1)
	}
	return smp
}

// accuracy is the share of the cohort whose served prediction equals its
// label; every record must have been served.
func (r *servingRun) accuracy() float64 {
	correct, unseen := 0, 0
	for i := range r.served {
		switch p := int(r.served[i].Load()) - 1; {
		case p < 0:
			unseen++
		case p == r.ds.Y[i]:
			correct++
		}
	}
	r.rep.check(unseen == 0, "%d of %d cohort records were never served correctly", unseen, len(r.served))
	return float64(correct) / float64(len(r.served))
}

// corruptScorer breaks the first score of every batch; the self-test
// uses it to show the output checks count a wrong score.
type corruptScorer struct{ core.Scorer }

func (c corruptScorer) ScoreBatchIntoObserved(rows [][]float64, dst []float64, o core.StageObserver) []float64 {
	dst = c.Scorer.ScoreBatchIntoObserved(rows, dst, o)
	dst[0] = math.Float64frombits(math.Float64bits(dst[0]) ^ 1)
	return dst
}

// reportEndToEnd sets a serving pass's end-to-end metrics.
func (r *servingRun) reportEndToEnd(p *pass) {
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].done.Before(p.samples[j].done) })
	lat := latencies(p.samples)
	tail, groups := tailLatency(lat)
	r.rep.set("latency_p50_ms", median(lat))
	r.rep.set("latency_p95_ms", tail)
	r.rep.set("records_per_s", float64(p.records)/p.win.elapsed.Seconds())
	r.rep.set("cpu_us_per_record", p.win.cpuPerRecordUs(p.records))
	r.rep.note("latency: %d samples in %d groups, %d beyond each group's p95; %d records in %.4g s; profiler CPU captures in window: %d",
		len(lat), groups, beyond(len(lat)/groups, tailQ), p.records, p.win.elapsed.Seconds(), p.captures)
}

// lateP99 is how late the generator sent, at its 99th percentile, in ms.
func lateP99(ss []sample) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = float64(s.late.Nanoseconds()) / 1e6
	}
	return quantile(xs, 0.99)
}
