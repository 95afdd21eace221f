package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer lets the test read run()'s output while the server goroutine
// is still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// servingRe pulls the bound address out of the "serving" log line in
// either log format: addr=HOST:PORT (text) or "addr":"HOST:PORT" (JSON).
var servingRe = regexp.MustCompile(`(?:msg=|"msg":")serving\b.*?\baddr(?:=|":")([^\s"]+)`)

// hdserve is one server booted in-process through run().
type hdserve struct {
	t      *testing.T
	addr   string
	out    *syncBuffer // stdout and stderr
	cancel context.CancelFunc
	done   chan error // nil once run() has returned
}

// boot runs hdserve with args on 127.0.0.1:0, waits for its "serving"
// line, and drains it on cleanup (or earlier, through stop).
func boot(t *testing.T, args ...string) *hdserve {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	s := &hdserve{t: t, out: &syncBuffer{}, cancel: cancel, done: make(chan error, 1)}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	go func() { s.done <- run(ctx, args, s.out, s.out) }()
	t.Cleanup(s.stop)
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := servingRe.FindStringSubmatch(s.out.String()); m != nil {
			s.addr = m[1]
			return s
		}
		select {
		case err := <-s.done:
			s.done = nil
			t.Fatalf("hdserve %v exited before serving: %v; output %q", args, err, s.out)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("hdserve %v never reported its address; output %q", args, s.out)
		}
	}
}

// stop cancels the server and waits for run() to drain and return nil.
func (s *hdserve) stop() {
	if s.done == nil {
		return
	}
	s.cancel()
	select {
	case err := <-s.done:
		if err != nil {
			s.t.Errorf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		s.t.Error("run did not exit after context cancellation")
	}
	s.done = nil
}

// call sends one request; hdr holds header name/value pairs.
func (s *hdserve) call(method, path, body string, hdr ...string) (*http.Response, []byte) {
	s.t.Helper()
	req, err := http.NewRequest(method, "http://"+s.addr+path, strings.NewReader(body))
	if err != nil {
		s.t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		s.t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		s.t.Fatal(err)
	}
	return resp, b
}

// post sends a JSON body and decodes a 200 answer into v (when non-nil).
func (s *hdserve) post(path, body string, v any, hdr ...string) {
	s.t.Helper()
	resp, b := s.call(http.MethodPost, path, body, hdr...)
	if resp.StatusCode != http.StatusOK {
		s.t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, b)
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			s.t.Fatalf("POST %s: %v in %s", path, err, b)
		}
	}
}

// get fetches path, which must answer 200.
func (s *hdserve) get(path string) string {
	s.t.Helper()
	resp, b := s.call(http.MethodGet, path, "")
	if resp.StatusCode != http.StatusOK {
		s.t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return string(b)
}

// getJSON decodes GET path into v.
func (s *hdserve) getJSON(path string, v any) {
	s.t.Helper()
	if err := json.Unmarshal([]byte(s.get(path)), v); err != nil {
		s.t.Fatalf("GET %s: %v", path, err)
	}
}

// metric reads the value of one exposition sample, e.g.
// `hdfe_shed_total{reason="queue_full"}`; ok is false when it is absent.
func metric(exposition, sample string) (v float64, ok bool) {
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)`).FindStringSubmatch(exposition)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	return v, err == nil
}

// eventually polls cond for up to 10s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// writeDemo writes a demo deployment at dim and seed to dir/name and
// returns its path.
func writeDemo(t *testing.T, dir, name string, dim, seed int) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var out bytes.Buffer
	args := []string{"-write-demo", path, "-dim", strconv.Itoa(dim), "-seed", strconv.Itoa(seed)}
	if err := run(context.Background(), args, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote demo deployment") || !strings.Contains(out.String(), "dim="+strconv.Itoa(dim)) {
		t.Fatalf("write-demo output: %q", out.String())
	}
	return path
}

const record = `{"features":[2,120,70,25,100,30.5,0.4,40]}`

func TestRunWriteDemoAndServe(t *testing.T) {
	model := writeDemo(t, t.TempDir(), "dep.bin", 256, 42)
	s := boot(t, "-model", model, "-name", "smoke")

	var h struct {
		Status string `json:"status"`
		Model  string `json:"model"`
		Dim    int    `json:"dim"`
	}
	s.getJSON("/healthz", &h)
	if h.Status != "ok" || h.Model != "smoke" || h.Dim != 256 {
		t.Fatalf("healthz %+v", h)
	}

	var sr struct {
		Score *float64 `json:"score"`
	}
	s.post("/v1/score", record, &sr)
	if sr.Score == nil || *sr.Score < 0 || *sr.Score > 1 {
		t.Fatalf("score %v, want a value in [0, 1]", sr.Score)
	}

	s.stop()
	if !strings.Contains(s.out.String(), "drained and stopped") {
		t.Fatalf("shutdown line missing from stdout: %q", s.out)
	}
}

// TestRunJSONLogsAndPprof drives the observability flags end to end:
// -log-format json emits machine-parseable request logs with trace IDs,
// and -pprof mounts the profiling handlers.
func TestRunJSONLogsAndPprof(t *testing.T) {
	s := boot(t, "-demo", "-dim", "128", "-log-format", "json", "-pprof")
	s.post("/v1/score", record, nil)

	// The request log line is JSON with trace_id/route/status/latency.
	eventually(t, "a request log line", func() bool { return strings.Contains(s.out.String(), `"msg":"request"`) })
	var reqLine map[string]any
	for _, line := range strings.Split(s.out.String(), "\n") {
		if strings.Contains(line, `"msg":"request"`) {
			if err := json.Unmarshal([]byte(line), &reqLine); err != nil {
				t.Fatalf("request log line %q: %v", line, err)
			}
			break
		}
	}
	if reqLine["route"] != "score" || reqLine["trace_id"] == nil || reqLine["status"] != float64(200) {
		t.Errorf("request log %v", reqLine)
	}

	s.get("/debug/pprof/")
	if prom := s.get("/metrics"); !strings.Contains(prom, "hdserve_stage_duration_seconds_bucket") {
		t.Errorf("/metrics missing stage histograms:\n%.400s", prom)
	}
}

// TestRunModelLifecycle drives the lifecycle surface end to end: boot
// with -model and -shadow, hot-swap via SIGHUP, promote a different
// artifact through /admin/models/load, and watch /v1/models and the
// model_version metric labels track every step.
func TestRunModelLifecycle(t *testing.T) {
	dir := t.TempDir()
	modelA := writeDemo(t, dir, "a.bin", 128, 42)
	modelB := writeDemo(t, dir, "b.bin", 128, 43)
	s := boot(t, "-model", modelA, "-shadow", modelB, "-name", "boot")

	type info struct {
		Version uint64 `json:"version"`
		Name    string `json:"name"`
		Path    string `json:"path"`
		SHA256  string `json:"sha256"`
	}
	type models struct {
		Active info   `json:"active"`
		Shadow *info  `json:"shadow"`
		Swaps  uint64 `json:"swaps"`
		Loaded []info `json:"loaded"`
	}
	getModels := func() (m models) {
		s.getJSON("/v1/models", &m)
		return m
	}

	m := getModels()
	if m.Active.Version != 1 || m.Active.Name != "boot" || m.Active.Path != modelA || len(m.Active.SHA256) != 64 {
		t.Fatalf("boot active %+v", m.Active)
	}
	if m.Shadow == nil || m.Shadow.Version != 2 || m.Shadow.Path != modelB {
		t.Fatalf("boot shadow %+v", m.Shadow)
	}

	// SIGHUP re-reads -model and promotes the fresh copy as version 3.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the SIGHUP reload", func() bool { return getModels().Active.Version == 3 })
	m = getModels()
	if m.Active.Path != modelA || m.Swaps != 1 {
		t.Fatalf("after SIGHUP: %+v", m)
	}
	if !strings.Contains(s.out.String(), "model reloaded") {
		t.Errorf("no reload log line; stdout %q", s.out)
	}
	var sr struct {
		ModelVersion uint64 `json:"model_version"`
	}
	if s.post("/v1/score", record, &sr); sr.ModelVersion != 3 {
		t.Errorf("score after SIGHUP attributed to version %d, want 3", sr.ModelVersion)
	}

	// The admin endpoint promotes a different artifact as version 4.
	s.post("/admin/models/load", `{"path":`+strconv.Quote(modelB)+`,"name":"b"}`, nil)
	m = getModels()
	if m.Active.Version != 4 || m.Active.Name != "b" || m.Swaps != 2 || len(m.Loaded) != 4 {
		t.Fatalf("after admin load: %+v", m)
	}

	// Scoring now attributes to version 4, and the exposition carries the
	// model_version label plus the swap counter.
	if s.post("/v1/score", record, &sr); sr.ModelVersion != 4 {
		t.Errorf("score attributed to version %d, want 4", sr.ModelVersion)
	}
	prom := s.get("/metrics")
	for _, want := range []string{
		"hdserve_model_swaps_total 2",
		`model_version="4"`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	ctx := context.Background()
	cases := [][]string{
		{},                              // no model
		{"-model", "/nonexistent"},      // unreadable model
		{"-demo", "-model", "x"},        // conflicting sources
		{"-bogus"},                      // unknown flag
		{"-demo", "positional-arg"},     // stray positional
		{"-demo", "-log-format", "xml"}, // unknown log format
		{"-demo", "-log-level", "loud"}, // unknown log level
	}
	for _, args := range cases {
		if err := run(ctx, args, &out, &errOut); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// A corrupt model file must fail cleanly, not panic.
	bad := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(bad, []byte("not a deployment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, []string{"-model", bad}, &out, &errOut); err == nil {
		t.Error("corrupt model accepted")
	}
}
