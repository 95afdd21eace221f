package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
	"hdfe/internal/obs/export"
	"hdfe/internal/obs/prof"
	"hdfe/internal/obs/slo"
	"hdfe/internal/registry"
)

// DeadlineHeader is the request header carrying a client-side scoring
// budget in integer milliseconds. The effective per-request deadline is
// the smaller of this and the server's RequestTimeout, propagated through
// context.Context into the batcher so a record past its budget is
// abandoned before encode/score work is spent on it.
const DeadlineHeader = "X-Request-Deadline-Ms"

// slowRefresh is how many tail-sampling decisions reuse one reading of
// the live p99 slow cutoff.
const slowRefresh = 64

// Config tunes the scoring service. The zero value serves with the
// defaults noted on each field.
type Config struct {
	// ModelName is the boot model's name, reported by /healthz and
	// /v1/models (default "deployment").
	ModelName string
	// ModelPath is the boot model's backing artifact, if it was loaded
	// from a file. It enables SIGHUP/ReloadModel for the boot model and
	// is reported by /v1/models.
	ModelPath string
	// ModelSHA256 is the hex digest of the boot model's artifact bytes
	// (registry.ReadFile computes it).
	ModelSHA256 string
	// MaxBatch caps microbatch size (default 32). A batch never waits to
	// fill: it takes whatever is queued and is scored at once, so batches
	// form from requests that pile up while the previous one is scored.
	MaxBatch int
	// RequestTimeout bounds one request end to end (default 5s).
	RequestTimeout time.Duration
	// ShutdownTimeout bounds the HTTP drain on shutdown (default 10s).
	ShutdownTimeout time.Duration
	// MaxBatchRecords caps records per /v1/score/batch call (default 4096).
	MaxBatchRecords int
	// MaxBodyBytes caps request body size (default 8 MiB).
	MaxBodyBytes int64
	// MaxInFlight is the admission gate's record budget across both
	// scoring routes: requests beyond it are fast-rejected with 429 and
	// a Retry-After hint before any validation or encode work is spent.
	// Default 1024; negative disables the gate.
	MaxInFlight int
	// QueueDepth is the batcher queue capacity. Default
	// max(4*MaxBatch, MaxInFlight), so the admission gate — not the
	// queue — is what bounds backlog and a submit never blocks on enqueue.
	QueueDepth int
	// RetryAfter is the hint sent in the Retry-After header of 429/503
	// shed responses (default 1s; rendered in whole seconds, min 1).
	RetryAfter time.Duration
	// Chaos is the fault-injection seam (see internal/chaos). Nil — the
	// production configuration — costs one branch per injection point.
	Chaos *chaos.Injector
	// RejectMissing makes null feature values a validation error instead
	// of encoding them as the baseline codeword (the encode contract's
	// NaN rule, and the default behaviour).
	RejectMissing bool
	// RejectOutOfRange makes continuous values outside the fitted
	// [min, max] a validation error (with the value and bounds in the
	// body) instead of a clamp-and-warn.
	RejectOutOfRange bool
	// PSIWarn is the per-feature PSI above which input drift is logged
	// (default 0.25, the conventional "significant shift" threshold).
	PSIWarn float64
	// ClampWarn is the per-feature out-of-range ratio above which
	// clamping is logged (default 0.01).
	ClampWarn float64
	// ScoreWindow sizes the rolling score window for prediction drift
	// (default 4096).
	ScoreWindow int
	// FeedbackCapacity bounds the prediction ring /v1/feedback joins
	// against (default 4096).
	FeedbackCapacity int
	// QualityWindow bounds the rolling labeled-outcome window the canary
	// judges (default 1024).
	QualityWindow int
	// QualityTolerance is how far rolling accuracy may fall below the
	// deployment's LOOCV baseline before the canary degrades
	// (default 0.05).
	QualityTolerance float64
	// ShadowQueue bounds the lossy queue feeding the shadow scoring
	// worker, in batches (default 64).
	ShadowQueue int
	// Logger receives structured request logs (default: discard).
	Logger *slog.Logger
	// TraceBuffer sizes the /debug/traces rings: that many most-recent
	// and that many slowest traces are kept (default 64).
	TraceBuffer int
	// OTLPEndpoint is the OTLP/HTTP trace collector URL (e.g.
	// http://localhost:4318/v1/traces). Empty — the default — disables
	// span export entirely; the in-process tracer still feeds
	// /debug/traces and the stage histograms.
	OTLPEndpoint string
	// TraceSample is the head-sampling fraction of ordinary traces
	// exported on top of the always-kept slow, error, and shed traces
	// (default 0.01; negative keeps tail-sampled traces only).
	TraceSample float64
	// TraceSeed seeds generated W3C trace IDs, the head-sampling rolls,
	// and export retry jitter (default: wall clock; fix it in tests for
	// reproducible identities and sampling decisions).
	TraceSeed uint64
	// ExportQueue bounds the lossy span queue feeding the OTLP export
	// worker (default 1024 spans; overflow is dropped, never blocks).
	ExportQueue int
	// SLOTarget is the compliance target shared by the availability and
	// latency SLO objectives (default 0.999).
	SLOTarget float64
	// SLOLatency is the per-request latency objective the SLO engine
	// holds responses to (default 250ms).
	SLOLatency time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. The profile
	// and trace endpoints are served by context-aware replacements routed
	// through the continuous profiler, so a cancelled download stops the
	// capture instead of running its full window.
	EnablePprof bool
	// Prof tunes the continuous profiler and runtime watchdogs (see
	// internal/obs/prof). The profiler is always on; Prof.Interval < 0
	// disables scheduled captures and Prof.Watchdog.Disable turns the
	// watchdogs off. Seed, Logger, Chaos, and the model-version stamp
	// default to the server's own.
	Prof prof.Config
	// Audit is the decision audit trail (see internal/obs/audit): when
	// set, every score/shed/error/feedback/model-swap decision emits one
	// hash-chained wide event. The server takes ownership and closes the
	// log last on Close, after the batcher and shadow worker have
	// drained. Nil — the default — disables auditing at the cost of one
	// branch per decision.
	Audit *audit.Log
}

func (c Config) withDefaults() Config {
	if c.ModelName == "" {
		c.ModelName = "deployment"
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.ShutdownTimeout <= 0 {
		c.ShutdownTimeout = 10 * time.Second
	}
	if c.MaxBatchRecords <= 0 {
		c.MaxBatchRecords = 4096
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 1024
	} else if c.MaxInFlight < 0 {
		c.MaxInFlight = 0 // explicit opt-out: unlimited
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
		if c.MaxInFlight > c.QueueDepth {
			c.QueueDepth = c.MaxInFlight
		}
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.PSIWarn <= 0 {
		c.PSIWarn = 0.25
	}
	if c.ClampWarn <= 0 {
		c.ClampWarn = 0.01
	}
	if c.ShadowQueue <= 0 {
		c.ShadowQueue = 64
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 64
	}
	if c.TraceSample == 0 {
		c.TraceSample = 0.01
	} else if c.TraceSample < 0 {
		c.TraceSample = 0
	}
	if c.TraceSeed == 0 {
		c.TraceSeed = uint64(time.Now().UnixNano())
	}
	if c.ExportQueue <= 0 {
		c.ExportQueue = 1024
	}
	// SLOTarget and SLOLatency zero-defaults live in slo.New.
	return c
}

// Server wires the model registry behind the HTTP scoring API described
// in the package comment. The boot scorer becomes registry version 1;
// further models arrive via POST /admin/models/load, SIGHUP (see
// cmd/hdserve), or the Load*/Adopt* lifecycle methods. Construct with
// New, mount via Handler (tests) or run with Serve (production), and
// always Close to drain the batcher and the shadow worker.
type Server struct {
	cfg      Config
	reg      *registry.Registry
	batcher  *Batcher
	shadow   *shadowScorer
	adm      *admission
	metrics  *Metrics
	tracer   *obs.Tracer
	exporter *export.Exporter // nil without an OTLPEndpoint
	sampler  *export.Sampler
	slo      *slo.Engine
	audit    *audit.Log // nil without Config.Audit
	profiler *prof.Profiler
	rtMu     sync.Mutex // serializes rtColl across concurrent scrapes
	rtColl   *prof.Collector
	logger   *slog.Logger
	mux      *http.ServeMux
}

// New builds a server over the boot scorer (typically a
// *core.Deployment). The scorer must be fitted; its codebook supplies
// the validation schema.
func New(sc core.Scorer, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		reg:     registry.New(),
		metrics: m,
		tracer:  obs.NewTracerSeeded(cfg.TraceBuffer, cfg.TraceSeed),
		audit:   cfg.Audit,
		logger:  cfg.Logger,
		mux:     http.NewServeMux(),
	}
	s.slo = slo.New(slo.Config{
		Target:           cfg.SLOTarget,
		LatencyObjective: cfg.SLOLatency,
		OnTransition: func(objective, from, to string) {
			// Edge-triggered: one line per state change, warning on the way
			// into a burn, info on the way back to ok.
			lvl := slog.LevelWarn
			if to == slo.StateOK {
				lvl = slog.LevelInfo
			}
			cfg.Logger.LogAttrs(context.Background(), lvl, "slo state change",
				slog.String("objective", objective),
				slog.String("from", from),
				slog.String("to", to))
		},
	})
	if cfg.OTLPEndpoint != "" {
		s.exporter = export.New(export.Config{
			Endpoint:  cfg.OTLPEndpoint,
			Service:   "hdserve",
			QueueSize: cfg.ExportQueue,
			Seed:      cfg.TraceSeed,
			Chaos:     cfg.Chaos,
		})
	}
	// Slow-trace cutoff for tail sampling: the live p99 latency — any
	// trace at or past it is always exported, whatever the head fraction.
	// Reading it walks every sub-bucket, so it is re-read once per
	// slowRefresh sampling decisions, not per request.
	var slowCut atomic.Int64
	var decided atomic.Uint64
	s.sampler = export.NewSampler(cfg.TraceSample, cfg.TraceSeed, func() time.Duration {
		if decided.Add(1)%slowRefresh == 1 {
			slowCut.Store(int64(m.latency.Snapshot().Quantile(0.99)))
		}
		return time.Duration(slowCut.Load())
	})
	// Adopt and promote the boot model before the batcher starts: the
	// batch loop assumes the active slot is never empty.
	s.reg.Promote(s.adopt(sc, cfg.ModelName, cfg.ModelPath, cfg.ModelSHA256))
	// The continuous profiler inherits the server's seed, logger, and
	// chaos seam unless the caller overrode them, and stamps captures with
	// the live registry version so a hot-spot shift ties to a hot-swap.
	pc := cfg.Prof
	if pc.Seed == 0 {
		pc.Seed = cfg.TraceSeed
	}
	if pc.Logger == nil {
		pc.Logger = cfg.Logger
	}
	if pc.Chaos == nil {
		pc.Chaos = cfg.Chaos
	}
	if pc.Version == nil {
		pc.Version = func() uint64 { return s.reg.Active().Info().Version }
	}
	s.profiler = prof.New(pc)
	s.rtColl = prof.NewCollector()
	s.profiler.Start()
	s.adm = newAdmission(cfg.MaxInFlight, cfg.RetryAfter)
	s.shadow = newShadowScorer(s.reg, cfg.ShadowQueue, cfg.RequestTimeout, cfg.Chaos, s.exporter)
	s.batcher = newBatcher(s.reg, cfg.MaxBatch, cfg.QueueDepth, m, s.shadow, cfg.Chaos)
	s.mux.HandleFunc("/v1/score", s.traced("score", s.handleScore))
	s.mux.HandleFunc("/v1/score/batch", s.traced("score_batch", s.handleScoreBatch))
	s.mux.HandleFunc("/v1/feedback", s.handleFeedback)
	s.mux.HandleFunc("/v1/models", readOnly(s.handleModels))
	s.mux.HandleFunc("/admin/models/load", s.handleLoadModel)
	s.mux.HandleFunc("/healthz", readOnly(s.handleHealthz))
	s.mux.HandleFunc("/metrics", readOnly(s.handleMetricsProm))
	s.mux.HandleFunc("/metrics.json", readOnly(s.handleMetricsJSON))
	s.mux.HandleFunc("/debug/traces", readOnly(s.handleTraces))
	s.mux.HandleFunc("/debug/slo", readOnly(s.handleSLO))
	s.mux.HandleFunc("/debug/drift", readOnly(s.handleDriftDebug))
	s.mux.HandleFunc("/debug/audit", readOnly(s.handleAuditDebug))
	s.mux.HandleFunc("/debug/prof", readOnly(s.handleProfIndex))
	s.mux.HandleFunc("/debug/prof/", readOnly(s.handleProfDownload))
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		// profile and trace go through context-aware replacements: the
		// stdlib handlers run their full sampling window even after the
		// client hangs up, and a stdlib CPU capture would collide with the
		// scheduled profiler's (the runtime allows one at a time).
		s.mux.HandleFunc("/debug/pprof/profile", s.handlePprofProfile)
		s.mux.HandleFunc("/debug/pprof/trace", s.handlePprofTrace)
	}
	return s
}

// Profiler exposes the continuous profiler (tests and embedding).
func (s *Server) Profiler() *prof.Profiler { return s.profiler }

// Handler returns the routing handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer exposes the server's pipeline tracer.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Close drains and stops the microbatcher, then the shadow worker, then
// the span exporter (in that order: the shadow worker may still emit
// disagreement spans while draining), and finally the audit log — last,
// so every decision the drained handlers emitted still reaches the
// chain. Call after the HTTP listener has stopped accepting requests
// (Serve does this in order).
func (s *Server) Close() {
	// Profiler first: it interrupts any in-flight capture immediately and
	// restores the process-global mutex/block profiling rates.
	s.profiler.Close()
	s.batcher.Close()
	s.shadow.close()
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	s.exporter.Shutdown(ctx)
	s.audit.Close()
}

// Serve runs the service on ln until ctx is cancelled, then shuts down
// gracefully: the HTTP server drains in-flight handlers (bounded by
// ShutdownTimeout), and only then the batcher closes — so every accepted
// request is scored and answered before Serve returns.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx)
	s.Close()
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// statusWriter captures the response status for tracing and logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// traced wraps a scoring handler in the pipeline tracer: every request
// gets one record (an obs.Trace) that the handler annotates with stage
// marks, batch size, model version, outcome and reason, and from which
// observe derives every per-request view once the response is written.
//
// W3C trace context flows through here: a valid inbound traceparent is
// adopted (same trace ID, upstream span as parent), anything malformed
// falls back to a freshly generated identity, and the resulting
// traceparent is echoed on every response — set before the handler
// runs, so 429/504 shed paths carry it too.
func (s *Server) traced(route string, h func(http.ResponseWriter, *http.Request, *obs.ActiveTrace) scored) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Fault seam: injected request-entry latency (a slow proxy, an
		// accept-queue spike) lands before the trace clock starts, like
		// real upstream delay would.
		_ = s.cfg.Chaos.Inject(chaos.PointHTTP)
		parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if parent.Valid() {
			parent.State = r.Header.Get("tracestate")
		}
		at := s.tracer.StartWith(route, parent)
		hdr := w.Header()
		hdr.Set("traceparent", at.Traceparent())
		if st := at.Context().State; st != "" {
			hdr.Set("tracestate", st)
		}
		// Echo a client-supplied request ID (gateways correlate on it),
		// otherwise mint one from the trace sequence.
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = requestID(at.ID())
		}
		hdr.Set("X-Request-Id", reqID)
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		sc := h(&sw, r, at)
		s.observe(r.Context(), at.Finish(sw.status), &sc)
	}
}

// scored is a successful scoring handler's hand-off to the audit view:
// the model state that answered and, per record, the validated inputs
// and the answer the client got.
type scored struct {
	st    *modelState
	row   []float64     // /v1/score: the one record's inputs
	resp  scoreResponse // /v1/score: its answer
	rows  [][]float64   // /v1/score/batch: every record's inputs
	batch batchScoreResponse
}

// observe derives every per-request view from the finished record t, in
// one place: the SLO engine, the outcome counters, the request-latency
// histogram and its exemplar, the audit events, tail-sampled span export,
// and the request log line. sc adds what a scored request's audit events
// carry beyond the record: the inputs and the answers. Audit events are
// enqueued here, inside ServeHTTP, so Serve's drain order covers them.
func (s *Server) observe(ctx context.Context, t obs.Trace, sc *scored) {
	s.slo.Observe(t.Status, t.Total)
	m := s.metrics
	m.countOutcome(t.Outcome, t.Reason)
	n := len(sc.rows) // records scored, if any: a batch's, or /v1/score's one
	if sc.rows == nil {
		n = 1
	}
	if t.Outcome == obs.OutcomeScored {
		m.recordsScored.Add(uint64(n))
		i := m.latency.Observe(t.Total)
		m.exMu.Lock()
		m.latencyEx[i] = obs.Exemplar{TraceID: t.TraceID, Value: t.Total.Seconds(), Ts: t.Start.Add(t.Total)}
		m.exMu.Unlock()
	}
	if s.audit != nil && t.Outcome != obs.OutcomeNone {
		ev := audit.Event{Route: t.Route, Outcome: audit.OutcomeError, Reason: t.Reason, TraceID: t.TraceID}
		switch t.Outcome {
		case obs.OutcomeScored:
			// One event per record, each an independent clinical decision
			// with its own feedback handle; stage times are the request's,
			// amortized per record on the batch route.
			d := time.Duration(n)
			ev.Outcome, ev.ModelVersion, ev.ModelSHA256, ev.Batch = audit.OutcomeScored, t.Model, sc.st.model.Info().SHA256, t.Batch
			ev.Stages = &audit.Stages{
				ValidateUs:  (t.Stages[obs.StageValidate] / d).Microseconds(),
				BatchWaitUs: (t.Stages[obs.StageBatchWait] / d).Microseconds(),
				EncodeUs:    (t.Stages[obs.StageEncode] / d).Microseconds(),
				ScoreUs:     (t.Stages[obs.StageScore] / d).Microseconds(),
			}
			for i := 0; i < n; i++ {
				row, resp := sc.row, sc.resp
				if sc.rows != nil {
					b := &sc.batch
					row, resp = sc.rows[i], scoreResponse{RequestID: b.RequestIDs[i], Score: b.Scores[i], Prediction: b.Predictions[i]}
				}
				ev.RequestID, ev.Inputs, ev.InputsSHA256 = resp.RequestID, audit.Inputs(row), audit.InputsDigest(row)
				ev.Score, ev.ScoreBits, ev.Prediction, ev.Explain = resp.Score, math.Float64bits(resp.Score), resp.Prediction, resp.Explain
				s.audit.Enqueue(ev)
			}
		case obs.OutcomeShed:
			ev.Outcome = audit.OutcomeShed
			fallthrough
		default:
			ev.RequestID = requestID(t.ID)
			s.audit.Enqueue(ev)
		}
	}
	if s.exporter != nil {
		if keep, _ := s.sampler.Keep(t); keep {
			for _, sp := range export.FromTrace(t) {
				s.exporter.Enqueue(sp)
			}
		}
	}
	lvl := slog.LevelInfo
	switch {
	case t.Status >= 500:
		lvl = slog.LevelError
	case t.Status >= 400:
		lvl = slog.LevelWarn
	}
	s.logger.LogAttrs(ctx, lvl, "request",
		slog.Uint64("trace_id", t.ID),
		slog.String("w3c_trace_id", t.TraceID),
		slog.String("route", t.Route),
		slog.Int("status", t.Status),
		slog.Duration("latency", t.Total),
		slog.Int("batch", t.Batch),
		slog.Uint64("model_version", t.Model),
	)
}

// scoreRequest is the body of POST /v1/score. Features are positional,
// matching the fitted schema; null means missing.
type scoreRequest struct {
	Features []*float64 `json:"features"`
}

// scoreResponse is the body of a successful POST /v1/score. RequestID
// is the handle /v1/feedback joins a delayed ground-truth label with.
// ModelVersion is the registry version of the model that scored the
// record — under hot-swapping, the authoritative attribution for the
// score.
type scoreResponse struct {
	RequestID    string               `json:"request_id"`
	Score        float64              `json:"score"`
	Prediction   int                  `json:"prediction"`
	ModelVersion uint64               `json:"model_version"`
	Warnings     []string             `json:"warnings,omitempty"`
	Explain      []audit.Contribution `json:"explain,omitempty"`
}

// batchScoreRequest is the body of POST /v1/score/batch.
type batchScoreRequest struct {
	Records [][]*float64 `json:"records"`
}

// recordWarnings attaches clamping warnings to a record index.
type recordWarnings struct {
	Index    int      `json:"index"`
	Warnings []string `json:"warnings"`
}

// batchScoreResponse is the body of a successful POST /v1/score/batch.
// RequestIDs carries one feedback handle per record, aligned with Scores.
type batchScoreResponse struct {
	RequestIDs   []string         `json:"request_ids"`
	Scores       []float64        `json:"scores"`
	Predictions  []int            `json:"predictions"`
	ModelVersion uint64           `json:"model_version"`
	Warnings     []recordWarnings `json:"warnings,omitempty"`
}

// errorResponse is every non-2xx body. TraceID is the request's W3C
// trace ID on traced (scoring) routes, so a client holding a rejection
// body can find the exact trace behind it without parsing headers.
type errorResponse struct {
	Error   string       `json:"error"`
	TraceID string       `json:"trace_id,omitempty"`
	Details []FieldError `json:"details,omitempty"`
	Record  int          `json:"record,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the client is gone if this fails; nothing to do
}

// writeError answers with an error body and annotates the record with
// the outcome: a validation error when the 400 carries per-field
// details, any other error otherwise.
func (s *Server) writeError(w http.ResponseWriter, at *obs.ActiveTrace, status int, msg string, details []FieldError, record int) {
	o := obs.OutcomeError
	if status == http.StatusBadRequest && details != nil {
		o = obs.OutcomeInvalid
	}
	at.SetOutcome(o, msg)
	writeJSON(w, status, errorResponse{Error: msg, TraceID: at.TraceID(), Details: details, Record: record})
}

// rejectUntraced answers an error on an untraced route (/v1/feedback,
// /admin/models/load). There is no record to derive its views from, so
// the error is counted and audited here, with its route and reason.
func (s *Server) rejectUntraced(w http.ResponseWriter, route string, status int, msg string, record int) {
	s.metrics.countOutcome(obs.OutcomeError, msg)
	s.audit.Enqueue(audit.Event{Route: route, Outcome: audit.OutcomeError, Reason: msg})
	writeJSON(w, status, errorResponse{Error: msg, Record: record})
}

// decodeBody reads a JSON request body, bounded by MaxBodyBytes and
// refusing unknown fields.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	return nil
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace, v any) bool {
	if err := s.decodeBody(w, r, v); err != nil {
		s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		return false
	}
	return true
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use " + method})
		return false
	}
	return true
}

// handleScore scores one record through the microbatcher. Validation
// uses the currently active model's schema; scoring uses whatever model
// is active when the batch forms (the schemas are identical — checkSchema
// gates every load). All drift/quality attribution goes to the model
// that actually scored the record.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace) (sc scored) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	s.metrics.scoreRequests.Add(1)
	budget, err := s.requestBudget(r)
	if err != nil {
		s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		return
	}
	explainK, err := parseExplain(r)
	if err != nil {
		s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		return
	}
	// Admission before decode, validation, and encode: a shed request
	// must cost a counter bump and a tiny JSON body, nothing more.
	if !s.adm.tryAcquire(1) {
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	}
	defer s.adm.release(1)
	var req scoreRequest
	if !s.decode(w, r, at, &req) {
		return
	}
	row, warnings, err := s.activeState().val.Validate(req.Features, nil)
	at.Step(obs.StageValidate)
	if err != nil {
		var verr *ValidationError
		if errors.As(err, &verr) {
			s.writeError(w, at, http.StatusBadRequest, "invalid record", verr.Fields, 0)
		} else {
			s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, 0)
		}
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	score, bt, st, err := s.batcher.submitTimed(ctx, row, at.Context())
	switch {
	case errors.Is(err, ErrClosed):
		s.shed(w, at, http.StatusServiceUnavailable, ShedDraining, "server shutting down")
		return
	case errors.Is(err, ErrQueueFull):
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	case errors.Is(err, context.DeadlineExceeded):
		// The whole budget went to queueing — attribute it to batch_wait
		// so /debug/traces shows where timed-out requests spent their
		// time, then answer 504.
		at.Step(obs.StageBatchWait)
		at.SetOutcome(obs.OutcomeShed, ShedDeadline.String())
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: "scoring timed out", TraceID: at.TraceID()})
		return
	case err != nil:
		s.writeError(w, at, http.StatusInternalServerError, err.Error(), nil, 0)
		return
	}
	// The batcher measured this record's share of encode and distance;
	// the rest of the submit interval (queueing, the batch's other
	// records, the shadow copy, delivery and wake-up) is batch_wait, so
	// the stages add up to the request's total.
	at.Add(obs.StageEncode, bt.Encode)
	at.Add(obs.StageScore, bt.Distance)
	at.Add(obs.StageBatchWait, -(bt.Encode + bt.Distance))
	at.Step(obs.StageBatchWait)
	at.SetBatch(bt.Size)
	at.SetModel(st.version())
	resp := scoreResponse{RequestID: requestID(at.ID()), Score: score, ModelVersion: st.version(), Warnings: warnings}
	if score >= 0.5 {
		resp.Prediction = 1
	}
	if explainK > 0 {
		// Explain against the same modelState that scored the record, so
		// the contributions (and the audit event) attribute to the exact
		// model version even when a hot-swap landed mid-request.
		resp.Explain = explainTopK(st.scorer.Explain(row), explainK)
	}
	st.drift.observeRow(row)
	st.drift.scores.Observe(score)
	st.drift.quality.Record(resp.RequestID, resp.Prediction)
	writeJSON(w, http.StatusOK, resp)
	at.Step(obs.StageRespond)
	at.SetOutcome(obs.OutcomeScored, "")
	return scored{st: st, row: row, resp: resp}
}

// handleScoreBatch scores an already-batched request directly through
// the active scorer — it is the client-side batching fast path and does
// not pass through the microbatcher. The model is acquired once for the
// whole request: validation, scoring, and attribution all see the same
// version, and a concurrent promote retires the old model only after
// this batch finishes.
func (s *Server) handleScoreBatch(w http.ResponseWriter, r *http.Request, at *obs.ActiveTrace) (sc scored) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	s.metrics.batchRequests.Add(1)
	var req batchScoreRequest
	if !s.decode(w, r, at, &req) {
		return
	}
	if len(req.Records) == 0 {
		s.writeError(w, at, http.StatusBadRequest, "empty records", nil, 0)
		return
	}
	if len(req.Records) > s.cfg.MaxBatchRecords {
		s.writeError(w, at, http.StatusBadRequest,
			fmt.Sprintf("%d records exceeds the %d-record batch limit", len(req.Records), s.cfg.MaxBatchRecords), nil, 0)
		return
	}
	if s.batcher.Draining() {
		s.shed(w, at, http.StatusServiceUnavailable, ShedDraining, "server shutting down")
		return
	}
	// Admission by record count: one oversized batch admits on an idle
	// server, but concurrent batches cannot stack unbounded encode work.
	n := int64(len(req.Records))
	if !s.adm.tryAcquire(n) {
		s.shed(w, at, http.StatusTooManyRequests, ShedQueueFull, "server overloaded")
		return
	}
	defer s.adm.release(n)
	st := s.acquireActive()
	defer st.release()
	at.SetModel(st.version())
	rows := make([][]float64, len(req.Records))
	var allWarnings []recordWarnings
	for i, rec := range req.Records {
		row, warnings, err := st.val.Validate(rec, nil)
		if err != nil {
			var verr *ValidationError
			if errors.As(err, &verr) {
				s.writeError(w, at, http.StatusBadRequest, fmt.Sprintf("invalid record %d", i), verr.Fields, i)
			} else {
				s.writeError(w, at, http.StatusBadRequest, err.Error(), nil, i)
			}
			return
		}
		rows[i] = row
		if len(warnings) > 0 {
			allWarnings = append(allWarnings, recordWarnings{Index: i, Warnings: warnings})
		}
	}
	for _, row := range rows {
		st.drift.observeRow(row)
	}
	at.Step(obs.StageValidate)
	var acc obs.StageAccum
	scores := st.scorer.ScoreBatchIntoObserved(rows, nil, &acc)
	// Every record in a client-side batch shares the request's trace
	// context, so a shadow disagreement on any of them joins this trace.
	tcs := make([]obs.TraceContext, len(rows))
	for i := range tcs {
		tcs[i] = at.Context()
	}
	s.shadow.submit(rows, scores, tcs)
	encTotal, distTotal, _ := acc.Totals()
	at.Add(obs.StageEncode, encTotal)
	at.Add(obs.StageScore, distTotal)
	at.SetBatch(len(rows))
	at.Mark()
	preds := make([]int, len(scores))
	ids := make([]string, len(scores))
	for i, score := range scores {
		if score >= 0.5 {
			preds[i] = 1
		}
		ids[i] = batchRequestID(at.ID(), i)
		st.drift.scores.Observe(score)
		st.drift.quality.Record(ids[i], preds[i])
	}
	resp := batchScoreResponse{
		RequestIDs: ids, Scores: scores, Predictions: preds,
		ModelVersion: st.version(), Warnings: allWarnings,
	}
	writeJSON(w, http.StatusOK, resp)
	at.Step(obs.StageRespond)
	at.SetOutcome(obs.OutcomeScored, "")
	return scored{st: st, rows: rows, batch: resp}
}

// requestBudget resolves one request's end-to-end scoring budget: the
// configured RequestTimeout, tightened — never widened — by the client's
// DeadlineHeader when present.
func (s *Server) requestBudget(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return s.cfg.RequestTimeout, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("invalid %s header %q: want positive integer milliseconds", DeadlineHeader, h)
	}
	if d := time.Duration(ms) * time.Millisecond; d < s.cfg.RequestTimeout {
		return d, nil
	}
	return s.cfg.RequestTimeout, nil
}

// handleHealthz reports liveness, the active model's identity, and the
// batcher state. While draining it answers 503 so load balancers pull
// the instance before the listener disappears.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.activeState()
	info := st.model.Info()
	status, state, code := "ok", "accepting", http.StatusOK
	if s.batcher.Draining() {
		status, state, code = "draining", "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":        status,
		"batcher":       state,
		"model":         info.Name,
		"model_version": info.Version,
		"dim":           info.Dim,
		"features":      st.val.FeatureNames(),
	})
}

// handleMetricsJSON serves the legacy expvar-style counter snapshot.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

// handleTraces serves the tracer's rings: the most recent and the
// slowest requests, each with a per-stage breakdown in microseconds and
// its batch attribution (W3C trace ID, microbatch size, model version,
// shed reason).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	recent, slowest := s.tracer.TraceViews()
	writeJSON(w, http.StatusOK, map[string]any{
		"recent":  recent,
		"slowest": slowest,
	})
}

// handleSLO serves the burn-rate engine's compliance snapshot: target,
// error budget, per-window availability/latency compliance and burn
// rates, and the edge-triggered burn state per objective.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}
