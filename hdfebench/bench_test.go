package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// shortSeconds is long enough for score-open to serve its whole cohort
// (768 records at 250 requests per second), which its accuracy needs.
const shortSeconds = 3 * time.Second

func runShort(t *testing.T, workload string, trace bool, corrupt string) (result, string) {
	t.Helper()
	var out strings.Builder
	res, err := run(options{
		workload: workload, seed: 1, seconds: shortSeconds, trace: trace,
		out: t.TempDir(), corrupt: corrupt,
	}, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricPrintedWithUnit runs each workload untraced and traced
// and checks that the verdict carries exactly BENCHMARK.json's metrics,
// each with its unit, and that every output check passed.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: want a one-line reason, got %q", w.Name, w.Why)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res, out := runShort(t, wl, trace, "")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl, trace, len(res.Metrics), len(want[trace]))
			}
			for name, unit := range want[trace] {
				got, ok := res.Metrics[name]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", wl, trace, name, got, unit)
				}
			}
			if !trace && res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: setup_s %v, want > 0", wl, res.Metrics["setup_s"].Value)
			}
		}
	}
}

// TestCorruptedOutputsCountAsFailed breaks one served score per batch and
// one deployment's LOOCV accuracy, and expects both runs to fail.
func TestCorruptedOutputsCountAsFailed(t *testing.T) {
	for _, tc := range []struct{ workload, corrupt string }{
		{"score-open", "score"},
		{"batch-closed", "score"},
		{"fit-loocv", "accuracy"},
	} {
		res, out := runShort(t, tc.workload, false, tc.corrupt)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s with a corrupted %s: correct=%v failed=%d, want a failure\n%s",
				tc.workload, tc.corrupt, res.Correct, res.Failed, out)
		}
	}
}
