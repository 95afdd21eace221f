package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"hdfe/internal/chaos"
	"hdfe/internal/core"
	"hdfe/internal/obs"
	"hdfe/internal/obs/audit"
	"hdfe/internal/synth"
)

// TestOneRecordAgreementE2E pins the one-record invariant: every
// per-request view — the request-latency histogram, the outcome
// counters, and each audit event's trace ID, model version, batch size
// and stage times — agrees with the request's finished trace at
// /debug/traces. It drives every outcome through one audited server:
// scored, validation error, other errors, a wrong method, a deadline
// shed, a queue-full shed, a client batch, and rejected calls to the
// untraced /v1/feedback and /admin/models/load routes, which are
// audited with their route and reason but no trace.
func TestOneRecordAgreementE2E(t *testing.T) {
	// Every microbatch stalls, so one lone request can hold the single
	// admission slot while a second is shed, and a short client deadline
	// expires in the queue.
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, P: 1, Delay: 200 * time.Millisecond})
	s, ts, auditDir, _ := auditServer(t, Config{MaxInFlight: 1, TraceBuffer: 64, Chaos: inj}, audit.Config{})
	d := synth.PimaM(7)
	client := ts.Client()
	post := func(path string, body any, hdr ...string) int {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if raw, ok := body.(string); ok {
			b = []byte(raw) // a raw, possibly malformed, body
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(string(b)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	expect := func(what string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: status %d, want %d", what, got, want)
		}
	}
	one := func(i int) scoreRequest { return scoreRequest{Features: floats(d.X[i]...)} }

	expect("score", post("/v1/score", one(0)), http.StatusOK)
	expect("score", post("/v1/score", one(1)), http.StatusOK)
	expect("score explain", post("/v1/score?explain=2", one(2)), http.StatusOK)
	expect("short record", post("/v1/score", scoreRequest{Features: floats(1, 2)}), http.StatusBadRequest)
	expect("malformed body", post("/v1/score", "{not json"), http.StatusBadRequest)
	expect("bad explain", post("/v1/score?explain=x", one(3)), http.StatusBadRequest)
	resp, err := client.Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	expect("GET score", resp.StatusCode, http.StatusMethodNotAllowed)

	// Deadline shed: the budget runs out while the batch stalls; the batch
	// loop counts the abandoned record once it wakes.
	expect("deadline", post("/v1/score", one(4), DeadlineHeader, "20"), http.StatusGatewayTimeout)
	waitFor(t, 5*time.Second, func() bool { return s.Metrics().ShedCount(ShedDeadline) == 1 },
		"deadline shed never counted")

	// Queue-full shed: a lone request holds the one admission slot through
	// its stalled batch while a second arrives.
	held := make(chan int, 1)
	go func() { held <- post("/v1/score", one(5)) }()
	waitFor(t, 5*time.Second, func() bool { return s.adm.Inflight() == 1 }, "first request never admitted")
	expect("over budget", post("/v1/score", one(6)), http.StatusTooManyRequests)
	expect("slot holder", <-held, http.StatusOK)

	recs := [][]*float64{floats(d.X[7]...), floats(d.X[8]...), floats(d.X[9]...)}
	expect("batch", post("/v1/score/batch", batchScoreRequest{Records: recs}), http.StatusOK)
	expect("batch bad record", post("/v1/score/batch", batchScoreRequest{Records: [][]*float64{floats(1)}}), http.StatusBadRequest)
	expect("batch empty", post("/v1/score/batch", batchScoreRequest{}), http.StatusBadRequest)
	expect("bad feedback", post("/v1/feedback", feedbackRequest{}), http.StatusBadRequest)
	expect("bad load", post("/admin/models/load", loadModelRequest{}), http.StatusBadRequest)

	// Outcome counters: the values the per-handler bookkeeping produced
	// for this sequence before the counters derived from the record.
	body, _ := scrape(t, ts)
	for family, want := range map[string]float64{
		`hdserve_validation_errors_total`:      2, // short record, batch bad record
		`hdserve_errors_total`:                 5, // malformed, bad explain, batch empty, feedback, load
		`hdserve_timeouts_total`:               1,
		`hdfe_shed_total{reason="queue_full"}`: 1,
		`hdfe_shed_total{reason="deadline"}`:   1,
		`hdfe_shed_total{reason="draining"}`:   0,
		`hdserve_records_scored_total`:         7,
	} {
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(family) + ` (\S+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Errorf("%s missing from /metrics", family)
			continue
		}
		if got, _ := strconv.ParseFloat(m[1], 64); got != want {
			t.Errorf("%s = %v, want %v", family, got, want)
		}
	}

	recent, _ := s.Tracer().TraceViews()
	if len(recent) != 13 {
		t.Fatalf("%d traces in the recent ring, want all 13 traced requests", len(recent))
	}
	traces := make(map[string]obs.TraceView, len(recent))
	var okCount uint64
	var okSum time.Duration
	for _, tv := range recent {
		traces[tv.TraceID] = tv
		if tv.Status == http.StatusOK {
			okCount++
			okSum += usToDuration(tv.TotalMicros)
		}
	}

	// The request histogram holds exactly the 200 responses' trace totals.
	lat := s.Metrics().latency.Snapshot()
	if lat.Count != okCount || okCount != 5 {
		t.Errorf("latency histogram count %d, 200 traces %d, want 5 each", lat.Count, okCount)
	}
	if lat.Sum != okSum {
		t.Errorf("latency histogram sum %v, 200 trace totals sum %v", lat.Sum, okSum)
	}

	ts.Close()
	s.Close() // drains the audit log
	var events []audit.Event
	if _, err := audit.Walk(auditDir, func(ev audit.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	perTrace := map[string]int{}
	census := map[audit.Outcome]int{}
	for _, ev := range events {
		perTrace[ev.TraceID]++
		census[ev.Outcome]++
	}
	if census[audit.OutcomeScored] != 7 || census[audit.OutcomeError] != 7 || census[audit.OutcomeShed] != 2 {
		t.Errorf("audit census %v, want 7 scored, 7 error, 2 shed", census)
	}
	untraced := map[string]int{}
	for _, ev := range events {
		if ev.TraceID == "" {
			if ev.Outcome != audit.OutcomeError || ev.Reason == "" {
				t.Errorf("seq %d: untraced event %+v, want an error with its reason", ev.Seq, ev)
			}
			untraced[ev.Route]++
			continue
		}
		tv, ok := traces[ev.TraceID]
		if !ok {
			t.Errorf("seq %d: trace %q not in /debug/traces", ev.Seq, ev.TraceID)
			continue
		}
		if ev.Route != tv.Route {
			t.Errorf("seq %d: route %s, trace %s", ev.Seq, ev.Route, tv.Route)
		}
		switch ev.Outcome {
		case audit.OutcomeScored:
			n := time.Duration(perTrace[ev.TraceID])
			want := audit.Stages{
				ValidateUs:  (usToDuration(tv.Stages["validate"]) / n).Microseconds(),
				BatchWaitUs: (usToDuration(tv.Stages["batch_wait"]) / n).Microseconds(),
				EncodeUs:    (usToDuration(tv.Stages["encode"]) / n).Microseconds(),
				ScoreUs:     (usToDuration(tv.Stages["score"]) / n).Microseconds(),
			}
			if ev.Stages == nil || *ev.Stages != want {
				t.Errorf("seq %d: stages %+v, trace %v amortized over %d records gives %+v", ev.Seq, ev.Stages, tv.Stages, n, want)
			}
			if ev.ModelVersion != tv.Model || ev.Batch != tv.Batch || tv.Status != http.StatusOK {
				t.Errorf("seq %d: model %d batch %d, trace model %d batch %d status %d",
					ev.Seq, ev.ModelVersion, ev.Batch, tv.Model, tv.Batch, tv.Status)
			}
		case audit.OutcomeShed:
			if ev.Reason != tv.Shed || perTrace[ev.TraceID] != 1 {
				t.Errorf("seq %d: shed %q, trace shed_reason %q", ev.Seq, ev.Reason, tv.Shed)
			}
		case audit.OutcomeError:
			if tv.Status < 400 || tv.Shed != "" || perTrace[ev.TraceID] != 1 {
				t.Errorf("seq %d: error event on trace %s", ev.Seq, fmt.Sprint(tv))
			}
		}
	}
	if untraced["feedback"] != 1 || untraced["model_load"] != 1 || len(untraced) != 2 {
		t.Errorf("untraced audit events by route %v, want one feedback and one model_load", untraced)
	}
}

// slowScorer sleeps after scoring each batch: batch-side time that the
// batcher's encode and distance timings do not cover.
type slowScorer struct{ core.Scorer }

func (s slowScorer) ScoreBatchIntoObserved(rows [][]float64, dst []float64, o core.StageObserver) []float64 {
	dst = s.Scorer.ScoreBatchIntoObserved(rows, dst, o)
	time.Sleep(50 * time.Millisecond)
	return dst
}

// TestScoreStagesAddUpToTotal pins that a /v1/score trace's stages
// account for its total: batch-side time outside the measured encode
// and distance shares counts as batch_wait instead of falling between
// stages.
func TestScoreStagesAddUpToTotal(t *testing.T) {
	s := New(slowScorer{testDeployment(t, 128)}, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/score", scoreRequest{Features: floats(synth.PimaM(7).X[0]...)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("score: status %d: %s", resp.StatusCode, body)
	}
	recent, _ := s.Tracer().TraceViews()
	if len(recent) != 1 {
		t.Fatalf("%d traces, want 1", len(recent))
	}
	tv := recent[0]
	sum := 0.0
	for _, us := range tv.Stages {
		sum += us
	}
	if gap := usToDuration(tv.TotalMicros - sum); gap >= 10*time.Millisecond {
		t.Errorf("total %vµs minus stages %v leaves %v unattributed, want < 10ms", tv.TotalMicros, tv.Stages, gap)
	}
}

// usToDuration inverts TraceView's float microseconds back to the exact
// nanosecond duration they were rendered from.
func usToDuration(us float64) time.Duration {
	return time.Duration(math.Round(us * 1000))
}
