package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTable1Smoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "table1", "-quick", "-seed", "1"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Table I — feature distribution",
		"Glucose",
		"(table1 completed in",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunRuntimeSmoke(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "runtime", "-quick", "-dim", "512"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(runtime completed in") {
		t.Fatalf("runtime experiment did not complete:\n%s", out.String())
	}
}

// TestRunEachExperimentSmoke drives every experiment the runtime and
// table1 smokes leave out through the CLI at a small dimensionality.
// Ablations is left out: its dimensionality sweep ignores -dim.
func TestRunEachExperimentSmoke(t *testing.T) {
	for _, exp := range []string{"table2", "table3", "table4", "table5", "curve", "mcnemar"} {
		var out, errOut bytes.Buffer
		args := []string{"-exp", exp, "-quick", "-dim", "256", "-folds", "2", "-trials", "1", "-curve-repeats", "1"}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
		if !strings.Contains(out.String(), "("+exp+" completed in") {
			t.Errorf("%s did not complete:\n%s", exp, out.String())
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-exp", "table99"}, &out, &errOut); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-not-a-flag"}, &out, &errOut); err == nil {
		t.Fatal("bogus flag accepted")
	}
}

func TestRunIsDeterministicPerSeed(t *testing.T) {
	stripTimings := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "(table1 completed") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	var a, b, discard bytes.Buffer
	if err := run([]string{"-exp", "table1", "-seed", "7"}, &a, &discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "table1", "-seed", "7"}, &b, &discard); err != nil {
		t.Fatal(err)
	}
	if stripTimings(a.String()) != stripTimings(b.String()) {
		t.Fatal("same seed produced different Table I output")
	}
}
