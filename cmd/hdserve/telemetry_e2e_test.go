package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"hdfe/internal/obs/audit"
	"hdfe/internal/obs/slo"
	"hdfe/internal/registry"
)

const (
	upstreamTraceID     = "4bf92f3577b34da6a3ce929d0e0e4736"
	upstreamTraceparent = "00-" + upstreamTraceID + "-00f067aa0ba902b7-01"
)

// TestRunTelemetrySurfaces boots hdserve once per telemetry flag group
// and checks, from the outside, what those flags switch on: span export
// to an OTLP collector under the sampling and SLO settings, scheduled
// CPU profiles that catch the scoring hot path, and an audit trail whose
// census, replay and tamper check run on what the server wrote.
func TestRunTelemetrySurfaces(t *testing.T) {
	dir := t.TempDir()
	model := writeDemo(t, dir, "model.bin", 256, 42)
	auditDir := filepath.Join(dir, "audit")
	var spans syncBuffer
	collector := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(&spans, r.Body)
	}))
	defer collector.Close()

	for _, tc := range []struct {
		name  string
		args  []string
		check func(t *testing.T, s *hdserve)
	}{{
		name: "otlp export, sampling and slo",
		args: []string{"-demo", "-dim", "128", "-log-format", "json",
			"-otlp-endpoint", collector.URL + "/v1/traces", "-trace-sample", "1",
			"-slo-target", "0.99", "-slo-latency-ms", "100"},
		check: func(t *testing.T, s *hdserve) {
			for i := 0; i < 4; i++ {
				s.post("/v1/score", record, nil, "traceparent", upstreamTraceparent)
			}
			eventually(t, "a span with the adopted trace ID at the collector", func() bool {
				return strings.Contains(spans.String(), upstreamTraceID)
			})
			if got := spans.String(); !strings.Contains(got, `"resourceSpans"`) || !strings.Contains(got, `"hdfe.route"`) {
				t.Errorf("collector payload is not OTLP/JSON spans carrying hdfe.route: %.300s", got)
			}
			var prom string
			eventually(t, "hdfe_trace_exported_total > 0", func() bool {
				prom = s.get("/metrics")
				n, _ := metric(prom, "hdfe_trace_exported_total")
				return n > 0
			})
			// -trace-sample 1 keeps every ordinary trace by the head roll.
			if n, _ := metric(prom, `hdfe_trace_sampled_total{decision="head"}`); n < 1 {
				t.Errorf("hdfe_trace_sampled_total{decision=\"head\"} = %v, want >= 1", n)
			}
			for sample, want := range map[string]float64{
				`hdfe_trace_sampled_total{decision="drop"}`: 0,
				"hdfe_slo_target":                                     0.99,
				"hdfe_slo_latency_objective_seconds":                  0.1,
				`hdfe_slo_state{objective="availability",state="ok"}`: 1,
			} {
				if got, ok := metric(prom, sample); !ok || got != want {
					t.Errorf("%s = %v (present %v), want %v", sample, got, ok, want)
				}
			}
			for _, family := range []string{"hdfe_trace_dropped_total", "hdfe_slo_burn_rate"} {
				if !strings.Contains(prom, "\n"+family) {
					t.Errorf("/metrics missing %s", family)
				}
			}
			var snap slo.Snapshot
			s.getJSON("/debug/slo", &snap)
			if snap.Target != 0.99 || snap.LatencyObjectiveMs != 100 || snap.AvailabilityState != "ok" ||
				snap.LatencyState == "" || len(snap.Windows) == 0 || snap.Windows[0].Window != "5m" {
				t.Errorf("/debug/slo %+v, want target 0.99, 100ms objective, availability ok, a 5m window", snap)
			}
			if budget := snap.ErrorBudget; budget < 0.0099 || budget > 0.0101 {
				t.Errorf("/debug/slo error_budget %v, want 1 - 0.99", budget)
			}
		},
	}, {
		name: "continuous profiling",
		args: []string{"-demo", "-dim", "2048", "-prof-interval", "500ms", "-prof-cpu-ms", "200"},
		check: func(t *testing.T, s *hdserve) {
			// Batch load keeps encode and distance busy while the
			// scheduled CPU windows sample.
			rows := strings.Repeat(`[2,120,70,25,100,30.5,0.4,40],`, 255) + `[2,120,70,25,100,30.5,0.4,40]`
			stop := make(chan struct{})
			var load sync.WaitGroup
			load.Add(1)
			go func() {
				defer load.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := http.Post("http://"+s.addr+"/v1/score/batch", "application/json",
						strings.NewReader(`{"records":[`+rows+`]}`))
					if err != nil {
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
			defer load.Wait()
			defer close(stop)

			var idx struct {
				Profiling struct {
					IntervalMs    int64 `json:"interval_ms"`
					CPUDurationMs int64 `json:"cpu_duration_ms"`
				} `json:"profiling"`
				Captures []struct {
					ID   uint64 `json:"id"`
					Kind string `json:"kind"`
				} `json:"captures"`
				Watchdogs []struct {
					Name string `json:"name"`
				} `json:"watchdogs"`
			}
			var checked uint64
			eventually(t, "a CPU capture naming an internal/encode or internal/hv function", func() bool {
				s.getJSON("/debug/prof", &idx)
				for _, c := range idx.Captures { // newest first
					if c.Kind != "cpu" || c.ID == checked {
						continue
					}
					checked = c.ID
					resp, blob := s.call(http.MethodGet, fmt.Sprintf("/debug/prof/%d", c.ID), "")
					if resp.StatusCode != http.StatusOK || len(blob) < 2 || blob[0] != 0x1f || blob[1] != 0x8b {
						t.Fatalf("capture %d: status %d, %d bytes, want a gzip download", c.ID, resp.StatusCode, len(blob))
					}
					zr, err := gzip.NewReader(bytes.NewReader(blob))
					if err != nil {
						t.Fatal(err)
					}
					raw, err := io.ReadAll(zr)
					if err != nil {
						t.Fatalf("capture %d does not gunzip: %v", c.ID, err)
					}
					return bytes.Contains(raw, []byte("hdfe/internal/encode.")) || bytes.Contains(raw, []byte("hdfe/internal/hv."))
				}
				return false
			})
			if p := idx.Profiling; p.IntervalMs != 500 || p.CPUDurationMs != 200 {
				t.Errorf("/debug/prof interval_ms %d cpu_duration_ms %d, want the flags' 500 and 200", p.IntervalMs, p.CPUDurationMs)
			}
			var names []string
			for _, w := range idx.Watchdogs {
				names = append(names, w.Name)
			}
			sort.Strings(names)
			if got := strings.Join(names, ","); got != "gc_pause,goroutines,heap_slope" {
				t.Errorf("/debug/prof watchdogs %q, want gc_pause, goroutines and heap_slope", got)
			}
			if resp, _ := s.call(http.MethodGet, "/debug/prof/999999", ""); resp.StatusCode != http.StatusNotFound {
				t.Errorf("unknown capture id: status %d, want 404", resp.StatusCode)
			}

			prom := s.get("/metrics")
			for _, family := range []string{
				"hdfe_prof_captures_total", "hdfe_prof_capture_failures_total", "hdfe_prof_ring_captures",
				"hdfe_prof_watchdog_firing", "hdfe_prof_watchdog_triggers_total",
				"hdfe_runtime_goroutines", "hdfe_runtime_heap_inuse_bytes", "hdfe_runtime_heap_goal_bytes",
				"hdfe_runtime_mem_total_bytes", "hdfe_runtime_mutex_wait_seconds_total", "hdfe_runtime_gc_cycles_total",
				"hdfe_runtime_gc_pauses_seconds_bucket", "hdfe_runtime_sched_latencies_seconds_bucket",
			} {
				if !strings.Contains(prom, "\n"+family) {
					t.Errorf("/metrics missing %s", family)
				}
			}
			if n, _ := metric(prom, `hdfe_prof_captures_total{kind="cpu"}`); n < 1 {
				t.Errorf("hdfe_prof_captures_total{kind=\"cpu\"} = %v, want >= 1", n)
			}
		},
	}, {
		// A 20ms stall at the batch point makes a 1ms client deadline
		// expire in the queue every time: one deterministic shed.
		name: "audit trail",
		args: []string{"-model", model, "-audit-dir", auditDir, "-audit-fsync", "100ms",
			"-chaos-spec", "batch:delay=20ms"},
		check: func(t *testing.T, s *hdserve) {
			var first struct {
				RequestID string `json:"request_id"`
			}
			s.post("/v1/score", record, &first)
			for i := 0; i < 4; i++ {
				s.post("/v1/score", record, nil)
			}
			var explained struct {
				Explain []struct {
					Feature    string   `json:"feature"`
					Similarity *float64 `json:"similarity"`
				} `json:"explain"`
			}
			s.post("/v1/score?explain=3", record, &explained)
			if len(explained.Explain) != 3 || explained.Explain[0].Feature == "" || explained.Explain[0].Similarity == nil {
				t.Errorf("?explain=3 answered %+v, want 3 feature contributions", explained.Explain)
			}
			s.post("/v1/score/batch", `{"records":[[2,120,70,25,100,30.5,0.4,40],[1,90,60,20,80,25.0,0.2,30]]}`, nil)
			s.post("/v1/feedback", `{"request_id":"`+first.RequestID+`","label":1}`, nil)
			if resp, body := s.call(http.MethodPost, "/v1/score", record, "X-Request-Deadline-Ms", "1"); resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("1ms deadline under a 20ms stall: status %d (%s), want 504", resp.StatusCode, body)
			}
			eventually(t, "8 scored audit events written", func() bool {
				n, _ := metric(s.get("/metrics"), `hdfe_audit_events_total{outcome="scored"}`)
				return n == 8
			})
			s.stop() // seals the chain

			res, err := audit.VerifyDir(auditDir)
			if err != nil {
				t.Fatalf("VerifyDir: %v", err)
			}
			if o := res.Outcomes; o["scored"] != 8 || o["shed"] != 1 || o["ok"] != 1 {
				t.Errorf("audit census %v, want scored=8 shed=1 ok=1 (the feedback)", o)
			}
			dep, sha, err := registry.ReadFile(model)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := audit.Replay(auditDir, dep, sha)
			if err != nil {
				t.Fatal(err)
			}
			if rr.Replayed != 8 || rr.Matched != 8 || len(rr.Divergences) != 0 {
				t.Errorf("replayed %d matched %d diverged %d, want 8/8/0", rr.Replayed, rr.Matched, len(rr.Divergences))
			}

			// Flip one byte of the segment the server wrote: verification
			// must fail.
			segs, err := filepath.Glob(filepath.Join(auditDir, "audit-*.jsonl"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no audit segment in %s: %v", auditDir, err)
			}
			data, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			data[100] ^= 1
			if err := os.WriteFile(segs[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := audit.VerifyDir(auditDir); err == nil {
				t.Error("VerifyDir passed a tampered segment")
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, boot(t, tc.args...)) })
	}
}
