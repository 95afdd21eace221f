package tables

import (
	"bytes"
	"strings"
	"testing"
)

func TestRuntimeQuick(t *testing.T) {
	res, err := Runtime(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Features <= 0 || r.Hyper <= 0 {
			t.Fatalf("%s: non-positive timing", r.Model)
		}
	}
	if res.NNEpochFeatures <= 0 || res.NNEpochHyper <= 0 {
		t.Fatal("NN epoch timings missing")
	}
	// The paper's direction even at quick scale: boosting slows down on
	// hypervectors far more than the forest does.
	var boostRatio, forestRatio float64
	for _, r := range res.Rows {
		switch r.Model {
		case "LGBM":
			boostRatio = r.Ratio()
		case "Random Forest":
			forestRatio = r.Ratio()
		}
	}
	if boostRatio <= forestRatio {
		t.Fatalf("LGBM slowdown %.1fx not above forest %.1fx", boostRatio, forestRatio)
	}
	var buf bytes.Buffer
	RenderRuntime(&buf, res)
	if !strings.Contains(buf.String(), "Slowdown") {
		t.Fatal("render missing slowdown column")
	}
}

func TestRuntimeRowRatio(t *testing.T) {
	r := RuntimeRow{Features: 100, Hyper: 1000}
	if r.Ratio() != 10 {
		t.Fatalf("ratio %v", r.Ratio())
	}
	if (RuntimeRow{}).Ratio() != 0 {
		t.Fatal("zero-feature ratio")
	}
}
