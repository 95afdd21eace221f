// Command hdbench regenerates the paper's tables.
//
// Usage:
//
//	hdbench [-exp all|table1|table2|table3|table4|table5] [-seed N]
//	        [-dim N] [-folds N] [-trials N] [-quick]
//
// Each experiment prints a table in the paper's layout. The -quick flag
// shrinks ensembles and epochs for a fast smoke run; the defaults
// reproduce the paper's configuration (D = 10,000, 10-fold CV, 10 NN
// trials, full ensembles).
//
// The runtime experiment reproduces the paper's §III fit-time comparison
// of every model on raw features against hypervectors. Per-layer serving
// costs (encode, distance, HTTP) are measured by the hdfebench benchmark
// (bash hdfebench/run.sh) and by `make bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hdfe/internal/tables"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hdbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable main: tables render to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp    = fs.String("exp", "all", "experiment: all, table1, table2, table3, table4, table5, ablations, curve, runtime, mcnemar")
		seed   = fs.Uint64("seed", 42, "master seed for data synthesis, encoding and splits")
		dim    = fs.Int("dim", 0, "hypervector dimensionality (0 = paper's 10000)")
		folds  = fs.Int("folds", 0, "cross-validation folds (0 = paper's 10)")
		trials = fs.Int("trials", 0, "NN repetitions (0 = paper's 10)")
		quick  = fs.Bool("quick", false, "shrink ensembles and epochs for a fast smoke run")

		curveModel   = fs.String("curve-model", "SGD", "zoo model for -exp curve")
		curveRepeats = fs.Int("curve-repeats", 5, "resamples per learning-curve point")
		mcnemarData  = fs.String("mcnemar-dataset", "pima-m", "dataset for -exp mcnemar: pima-r, pima-m, sylhet")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := tables.Config{Seed: *seed, Dim: *dim, Folds: *folds, Trials: *trials, Quick: *quick}
	timed := func(name string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s failed: %w", name, err)
		}
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	any := false
	if want("table1") {
		any = true
		if err := timed("table1", func() error {
			tables.RenderTable1(stdout, tables.Table1(cfg))
			return nil
		}); err != nil {
			return err
		}
	}
	if want("table2") {
		any = true
		if err := timed("table2", func() error {
			res, err := tables.Table2(cfg)
			if err != nil {
				return err
			}
			tables.RenderTable2(stdout, res)
			return nil
		}); err != nil {
			return err
		}
	}
	if want("table3") {
		any = true
		if err := timed("table3", func() error {
			res, err := tables.Table3(cfg)
			if err != nil {
				return err
			}
			tables.RenderTable3(stdout, res)
			return nil
		}); err != nil {
			return err
		}
	}
	if want("table4") {
		any = true
		if err := timed("table4", func() error {
			res, err := tables.Table4(cfg)
			if err != nil {
				return err
			}
			tables.RenderTestMetrics(stdout, "Table IV", res)
			return nil
		}); err != nil {
			return err
		}
	}
	if want("table5") {
		any = true
		if err := timed("table5", func() error {
			res, err := tables.Table5(cfg)
			if err != nil {
				return err
			}
			tables.RenderTestMetrics(stdout, "Table V", res)
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "curve" {
		any = true
		if err := timed("curve", func() error {
			res, err := tables.LearningCurve(cfg, *curveModel, *curveRepeats)
			if err != nil {
				return err
			}
			tables.RenderLearningCurve(stdout, res)
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "mcnemar" {
		any = true
		if err := timed("mcnemar", func() error {
			res, err := tables.Significance(cfg, *mcnemarData)
			if err != nil {
				return err
			}
			tables.RenderSignificance(stdout, res)
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "runtime" {
		any = true
		if err := timed("runtime", func() error {
			res, err := tables.Runtime(cfg)
			if err != nil {
				return err
			}
			tables.RenderRuntime(stdout, res)
			return nil
		}); err != nil {
			return err
		}
	}
	if *exp == "ablations" {
		any = true
		if err := timed("ablations", func() error {
			res, err := tables.Ablations(cfg)
			if err != nil {
				return err
			}
			tables.RenderAblations(stdout, res, tables.DatasetNames(cfg))
			return nil
		}); err != nil {
			return err
		}
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
