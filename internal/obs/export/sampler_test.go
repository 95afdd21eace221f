package export

import (
	"testing"
	"time"

	"hdfe/internal/obs"
)

func trace(status int, shed string, total time.Duration) obs.Trace {
	var t obs.Trace
	t.Ctx.TraceID[15] = 1
	t.Ctx.SpanID[7] = 1
	t.Route = "score"
	t.Status = status
	if shed != "" {
		t.Outcome, t.Reason = obs.OutcomeShed, shed
	}
	t.Total = total
	return t
}

// TestSamplerTailRules pins the always-keep tiers: errors, sheds, and
// slow traces survive a zero head fraction, and precedence is
// error > shed > slow.
func TestSamplerTailRules(t *testing.T) {
	slow := func() time.Duration { return 100 * time.Millisecond }
	s := NewSampler(0, 1, slow)
	cases := []struct {
		name string
		t    obs.Trace
		keep bool
		why  string
	}{
		{"500 is an error", trace(500, "", time.Millisecond), true, KeepError},
		{"5xx outranks a shed reason", trace(504, "deadline", time.Millisecond), true, KeepError},
		{"429 without reason", trace(429, "", time.Millisecond), true, KeepShed},
		{"shed reason below 5xx", trace(429, "queue_full", time.Millisecond), true, KeepShed},
		{"at the slow cutoff", trace(200, "", 100*time.Millisecond), true, KeepSlow},
		{"ordinary fast 200", trace(200, "", time.Millisecond), false, KeepDrop},
		{"ordinary 400", trace(400, "", time.Millisecond), false, KeepDrop},
	}
	for _, c := range cases {
		keep, why := s.Keep(c.t)
		if keep != c.keep || why != c.why {
			t.Errorf("%s: (%v, %s), want (%v, %s)", c.name, keep, why, c.keep, c.why)
		}
	}
	if got := s.Decisions(KeepShed); got != 2 {
		t.Errorf("shed decisions %d, want 2", got)
	}
	if got := s.Decisions(KeepDrop); got != 2 {
		t.Errorf("drop decisions %d, want 2", got)
	}
}

// TestSamplerSlowCutoffDisabled pins that a zero cutoff (no latency
// data yet) and a nil callback both disable the slow tier rather than
// keeping everything.
func TestSamplerSlowCutoffDisabled(t *testing.T) {
	for _, s := range []*Sampler{
		NewSampler(0, 1, func() time.Duration { return 0 }),
		NewSampler(0, 1, nil),
	} {
		if keep, why := s.Keep(trace(200, "", time.Hour)); keep || why != KeepDrop {
			t.Errorf("slow keep with no cutoff: (%v, %s)", keep, why)
		}
	}
}

// TestSamplerHeadFraction pins the seeded head roll: fraction 1 keeps
// everything, fraction 0 nothing, and the same seed reproduces the
// same decisions.
func TestSamplerHeadFraction(t *testing.T) {
	all := NewSampler(1, 1, nil)
	if keep, why := all.Keep(trace(200, "", 0)); !keep || why != KeepHead {
		t.Errorf("fraction 1: (%v, %s), want (true, head)", keep, why)
	}
	none := NewSampler(-0.5, 1, nil) // clamps to 0
	if keep, _ := none.Keep(trace(200, "", 0)); keep {
		t.Error("clamped fraction 0 kept a trace")
	}

	roll := func(seed uint64) []bool {
		s := NewSampler(0.3, seed, nil)
		out := make([]bool, 64)
		for i := range out {
			out[i], _ = s.Keep(trace(200, "", 0))
		}
		return out
	}
	a, b := roll(7), roll(7)
	kept := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
		if a[i] {
			kept++
		}
	}
	if kept == 0 || kept == 64 {
		t.Errorf("fraction 0.3 kept %d/64 — roll looks degenerate", kept)
	}
}

func TestSamplerNilSafe(t *testing.T) {
	var s *Sampler
	if keep, why := s.Keep(trace(500, "", 0)); keep || why != KeepDrop {
		t.Errorf("nil sampler: (%v, %s)", keep, why)
	}
	if s.Decisions(KeepDrop) != 0 {
		t.Error("nil sampler counted a decision")
	}
}

// TestFromTraceStructure pins the trace → span conversion: one root
// server span carrying the request attributes, one child per stage the
// request crossed, all sharing the trace ID with parentage rooted at
// the request span.
func TestFromTraceStructure(t *testing.T) {
	tr := trace(429, "queue_full", 5*time.Millisecond)
	tr.Batch = 4
	tr.Model = 2
	tr.Parent = [8]byte{9}
	tr.Start = time.Unix(1700000000, 0)
	tr.Stages[0] = time.Millisecond
	tr.Stages[1] = 2 * time.Millisecond

	spans := FromTrace(tr)
	if len(spans) != 3 {
		t.Fatalf("%d spans for a root plus two stages", len(spans))
	}
	root := spans[0]
	if root.SpanID != tr.Ctx.SpanID || root.Parent != tr.Parent || root.Kind != KindServer {
		t.Errorf("root identity: %+v", root)
	}
	if root.Status != StatusError || root.StatusMsg != "shed: queue_full" {
		t.Errorf("root status %d %q for a shed 429", root.Status, root.StatusMsg)
	}
	if !root.End.Equal(tr.Start.Add(tr.Total)) {
		t.Errorf("root span [%v, %v] does not cover the request", root.Start, root.End)
	}
	attrs := map[string]Attr{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a
	}
	for _, key := range []string{"hdfe.route", "http.status_code", "hdfe.batch_size", "hdfe.model_version", "hdfe.shed_reason"} {
		if _, ok := attrs[key]; !ok {
			t.Errorf("root missing attribute %s", key)
		}
	}
	for i, sp := range spans[1:] {
		if sp.TraceID != tr.Ctx.TraceID || sp.Parent != tr.Ctx.SpanID {
			t.Errorf("stage span %d not parented to the root: %+v", i, sp)
		}
		if sp.SpanID == root.SpanID || sp.SpanID == ([8]byte{}) {
			t.Errorf("stage span %d has a degenerate span ID", i)
		}
	}
	if spans[1].SpanID == spans[2].SpanID {
		t.Error("sibling stage spans share a span ID")
	}
	// Stage layout is sequential from the request start.
	if !spans[1].Start.Equal(tr.Start) || !spans[2].Start.Equal(tr.Start.Add(time.Millisecond)) {
		t.Errorf("stage offsets [%v, %v] not sequential", spans[1].Start, spans[2].Start)
	}
}

// TestFromTraceCleanRequest pins the happy path: OK status, no shed
// attributes.
func TestFromTraceCleanRequest(t *testing.T) {
	root := FromTrace(trace(200, "", time.Millisecond))[0]
	if root.Status != StatusOK || root.StatusMsg != "" {
		t.Errorf("clean request status %d %q", root.Status, root.StatusMsg)
	}
	for _, a := range root.Attrs {
		if a.Key == "hdfe.shed_reason" || a.Key == "hdfe.batch_size" {
			t.Errorf("clean single request carries %s", a.Key)
		}
	}
}

// TestDisagreementSpan pins the shadow-disagreement event span: rooted
// in the originating request's trace, deterministic ID per record, and
// both scores attached.
func TestDisagreementSpan(t *testing.T) {
	tr := trace(200, "", time.Millisecond)
	at := time.Unix(1700000000, 0)
	sp := DisagreementSpan(tr.Ctx, 3, 7, 0.61, 0.42, at)
	if sp.TraceID != tr.Ctx.TraceID || sp.Parent != tr.Ctx.SpanID {
		t.Errorf("disagreement span not rooted in the request trace: %+v", sp)
	}
	if sp.SpanID != DisagreementSpan(tr.Ctx, 3, 7, 0.61, 0.42, at).SpanID {
		t.Error("span ID not deterministic for the same record")
	}
	if sp.SpanID == DisagreementSpan(tr.Ctx, 4, 7, 0.61, 0.42, at).SpanID {
		t.Error("distinct records share a span ID")
	}
	attrs := map[string]string{}
	for _, a := range sp.Attrs {
		attrs[a.Key] = a.Str
	}
	if attrs["hdfe.active_score"] != "0.610000" || attrs["hdfe.shadow_score"] != "0.420000" {
		t.Errorf("score attributes %v", attrs)
	}
}
