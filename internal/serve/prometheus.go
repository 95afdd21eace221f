package serve

import (
	"net/http"
	"runtime"
	"time"

	"hdfe/internal/obs"
	"hdfe/internal/obs/export"
	"hdfe/internal/obs/slo"
)

// batchSizeBounds are the cumulative upper bounds matching the
// power-of-two batchHist cells ("1","2","3-4",...,"33-64"); the trailing
// "65+" cell becomes the +Inf bucket.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64}

// handleMetricsProm serves the Prometheus text-format exposition: every
// counter the JSON snapshot carries, the per-stage pipeline histograms,
// batcher gauges, Go runtime stats, and build info.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	p := obs.NewPromWriter(w)
	m := s.metrics

	activeInfo := s.reg.Active().Info()
	p.Header("hdserve_build_info", "gauge", "Build and active model identity (always 1).")
	p.Value("hdserve_build_info", 1,
		"go_version", runtime.Version(),
		"model", activeInfo.Name,
		"model_version", versionLabel(activeInfo.Version))
	p.Header("hdserve_uptime_seconds", "gauge", "Seconds since the metrics epoch.")
	p.Value("hdserve_uptime_seconds", time.Since(m.start).Seconds())
	p.Header("hdserve_model_swaps_total", "counter", "Active-model hot-swaps since boot (the boot promote does not count).")
	p.Value("hdserve_model_swaps_total", float64(s.reg.Swaps()))

	p.Header("hdserve_requests_total", "counter", "Scoring requests by route.")
	p.Value("hdserve_requests_total", float64(m.scoreRequests.Load()), "route", "score")
	p.Value("hdserve_requests_total", float64(m.batchRequests.Load()), "route", "score_batch")
	p.Header("hdserve_records_scored_total", "counter", "Records scored across both routes.")
	p.Value("hdserve_records_scored_total", float64(m.recordsScored.Load()))
	p.Header("hdserve_validation_errors_total", "counter", "Requests rejected by schema validation.")
	p.Value("hdserve_validation_errors_total", float64(m.validationErrs.Load()))
	p.Header("hdserve_timeouts_total", "counter", "Requests abandoned on context expiry.")
	p.Value("hdserve_timeouts_total", float64(m.timeouts.Load()))
	p.Header("hdserve_errors_total", "counter", "Other 4xx/5xx responses.")
	p.Value("hdserve_errors_total", float64(m.errors.Load()))
	p.Header("hdserve_batches_total", "counter", "Microbatcher ScoreBatch calls.")
	p.Value("hdserve_batches_total", float64(m.batches.Load()))
	p.Header("hdserve_microbatched_records_total", "counter", "Records scored through the microbatcher.")
	p.Value("hdserve_microbatched_records_total", float64(m.microbatchedRecords.Load()))

	p.Header("hdfe_shed_total", "counter", "Requests refused by overload protection, by reason.")
	for r := ShedReason(0); r < numShedReasons; r++ {
		p.Value("hdfe_shed_total", float64(m.ShedCount(r)), "reason", r.String())
	}
	p.Header("hdserve_inflight_records", "gauge", "Records currently admitted past the overload gate.")
	p.Value("hdserve_inflight_records", float64(s.adm.Inflight()))

	p.Header("hdserve_batcher_queue_depth", "gauge", "Requests waiting for the batch loop.")
	p.Value("hdserve_batcher_queue_depth", float64(s.batcher.QueueDepth()))
	p.Header("hdserve_batcher_accepting", "gauge", "1 while the batcher accepts requests, 0 once draining.")
	accepting := 1.0
	if s.batcher.Draining() {
		accepting = 0
	}
	p.Value("hdserve_batcher_accepting", accepting)

	p.Header("hdserve_batch_size", "histogram", "Microbatch sizes (records per ScoreBatch call).")
	sizeCounts := make([]uint64, len(m.batchHist))
	for i := range m.batchHist {
		sizeCounts[i] = m.batchHist[i].Load()
	}
	p.Histogram("hdserve_batch_size", batchSizeBounds, sizeCounts,
		float64(m.microbatchedRecords.Load()))

	p.Header("hdserve_request_duration_seconds", "histogram", "End-to-end request latency.")
	p.LatencyHistogram("hdserve_request_duration_seconds", m.latency.Snapshot(), m.latencyExemplars())

	p.Header("hdserve_stage_duration_seconds", "histogram",
		"Per-request pipeline stage time (validate, batch_wait, encode, score, respond).")
	for _, st := range s.tracer.StageSnapshot() {
		p.LatencyHistogram("hdserve_stage_duration_seconds", st.HistogramSnapshot, nil, "stage", st.Stage)
	}

	s.promDrift(p)
	s.promTracing(p)
	s.promSLO(p)
	s.promAudit(p)

	// Continuous profiling counters, then the runtime/metrics families.
	// The runtime collector is owned by the scrape path (the watchdog loop
	// keeps its own), serialized across concurrent scrapes.
	s.profiler.WriteProm(p)
	s.rtMu.Lock()
	s.rtColl.WriteProm(p)
	s.rtMu.Unlock()

	p.GoRuntime()
	if err := p.Err(); err != nil {
		s.logger.Warn("metrics exposition failed", "err", err)
	}
}

// promTracing emits the span-export pipeline's counters. The families
// appear (zeroed) even without an OTLP endpoint, so dashboards and the
// golden exposition inventory are stable across configurations.
func (s *Server) promTracing(p *obs.PromWriter) {
	p.Header("hdfe_trace_sampled_total", "counter", "Tail-sampling decisions on finished traces, by decision.")
	for _, d := range export.SampleReasons {
		p.Value("hdfe_trace_sampled_total", float64(s.sampler.Decisions(d)), "decision", d)
	}
	p.Header("hdfe_trace_exported_total", "counter", "Spans acknowledged by the OTLP collector.")
	p.Value("hdfe_trace_exported_total", float64(s.exporter.Exported()))
	p.Header("hdfe_trace_dropped_total", "counter", "Spans dropped: queue overflow or exhausted export retries.")
	p.Value("hdfe_trace_dropped_total", float64(s.exporter.Dropped()))
	p.Header("hdfe_trace_export_batches_total", "counter", "Successful OTLP export POSTs.")
	p.Value("hdfe_trace_export_batches_total", float64(s.exporter.Batches()))
	p.Header("hdfe_trace_export_failures_total", "counter", "Failed OTLP export POST attempts (each retry counts).")
	p.Value("hdfe_trace_export_failures_total", float64(s.exporter.Failures()))
}

// promSLO emits the burn-rate engine's state: target, windowed
// compliance and burn rates per objective, and the active burn state as
// a one-hot labeled gauge.
func (s *Server) promSLO(p *obs.PromWriter) {
	snap := s.slo.Snapshot()
	p.Header("hdfe_slo_target", "gauge", "Compliance target shared by the availability and latency objectives.")
	p.Value("hdfe_slo_target", snap.Target)
	p.Header("hdfe_slo_latency_objective_seconds", "gauge", "Per-request latency objective.")
	p.Value("hdfe_slo_latency_objective_seconds", snap.LatencyObjectiveMs/1e3)
	p.Header("hdfe_slo_compliance", "gauge", "Windowed good-request fraction per objective.")
	for _, w := range snap.Windows {
		p.Value("hdfe_slo_compliance", w.Availability, "objective", slo.Availability, "window", w.Window)
		p.Value("hdfe_slo_compliance", w.LatencyCompliance, "objective", slo.Latency, "window", w.Window)
	}
	p.Header("hdfe_slo_burn_rate", "gauge", "Windowed error-budget burn rate per objective (1.0 spends the budget exactly on schedule).")
	for _, w := range snap.Windows {
		p.Value("hdfe_slo_burn_rate", w.AvailabilityBurn, "objective", slo.Availability, "window", w.Window)
		p.Value("hdfe_slo_burn_rate", w.LatencyBurn, "objective", slo.Latency, "window", w.Window)
	}
	p.Header("hdfe_slo_window_requests", "gauge", "Requests inside each SLO window.")
	for _, w := range snap.Windows {
		p.Value("hdfe_slo_window_requests", float64(w.Requests), "window", w.Window)
	}
	p.Header("hdfe_slo_state", "gauge", "Burn state per objective (1 on the active state).")
	for _, obj := range [...]struct{ name, state string }{
		{slo.Availability, snap.AvailabilityState},
		{slo.Latency, snap.LatencyState},
	} {
		for _, st := range [...]string{slo.StateOK, slo.StateSlowBurn, slo.StateFastBurn} {
			v := 0.0
			if st == obj.state {
				v = 1
			}
			p.Value("hdfe_slo_state", v, "objective", obj.name, "state", st)
		}
	}
}
