package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the machine, toolchain, source and inputs of a
// run. Results are comparable only when the machine fields match.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git HEAD when the checkout is a git repository,
	// otherwise "unknown"; Source identifies the code either way.
	Commit   string `json:"commit"`
	Source   string `json:"source_sha256"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
}

func takeFingerprint(opts options) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitHead("."),
		Source:     sourceDigest("."),
		Workload:   opts.workload,
		Seed:       opts.seed,
		Seconds:    int(opts.seconds.Seconds()),
		Trace:      opts.trace,
	}
}

// mismatch lists the fields on which two runs are not comparable.
func (f fingerprint) mismatch(o fingerprint) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, a, b))
		}
	}
	add("nproc", f.NumCPU, o.NumCPU)
	add("gomaxprocs", f.GOMAXPROCS, o.GOMAXPROCS)
	add("cpu_model", f.CPUModel, o.CPUModel)
	add("go_version", f.GoVersion, o.GoVersion)
	add("workload", f.Workload, o.Workload)
	add("seconds", f.Seconds, o.Seconds)
	add("trace", f.Trace, o.Trace)
	return out
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitHead reads HEAD without running git; a checkout that is not a git
// repository reports "unknown".
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod under root (dot
// directories skipped), so two runs of the same code share a digest
// whether or not the checkout carries git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

// savedResult is the file written next to every run, for compare.
type savedResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func saveResult(opts options, fp fingerprint, res result, w io.Writer) {
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", opts.workload, opts.seed, boolInt(opts.trace))
	path := filepath.Join(opts.out, name)
	blob, err := json.MarshalIndent(savedResult{Fingerprint: fp, Result: res}, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(w, "note: result not saved: %v\n", err)
		return
	}
	fmt.Fprintf(w, "saved %s\n", path)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain diffs two saved results: base then candidate. It exits 3
// when the fingerprints differ (no verdict), 1 when a metric is worse
// than its BENCHMARK.json bound, and 0 otherwise.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: hdfebench compare BASE.json CANDIDATE.json")
		return 2
	}
	var runs [2]savedResult
	for i, path := range args {
		blob, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(blob, &runs[i])
		}
		if err != nil {
			fmt.Fprintf(w, "compare: %s: %v\n", path, err)
			return 2
		}
	}
	if mm := runs[0].Fingerprint.mismatch(runs[1].Fingerprint); len(mm) > 0 {
		fmt.Fprintf(w, "fingerprint mismatch, not compared: %s\n", strings.Join(mm, "; "))
		return 3
	}
	var spec benchmarkSpec
	blob, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(blob, &spec)
	}
	if err != nil {
		fmt.Fprintf(w, "compare: BENCHMARK.json: %v\n", err)
		return 2
	}
	code := 0
	for _, m := range spec.EndToEnd {
		a, okA := runs[0].Result.Metrics[m.Name]
		b, okB := runs[1].Result.Metrics[m.Name]
		if !okA || !okB || a.Value == 0 {
			continue
		}
		change := (b.Value - a.Value) / math.Abs(a.Value)
		worse := change
		if m.Better == "higher" {
			worse = -change
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict = "REGRESSION"
			code = 1
		}
		fmt.Fprintf(w, "%-20s %14.6g %14.6g %+8.2f%%  bound %.0f%%  %s\n",
			m.Name, a.Value, b.Value, 100*change, 100*m.Bound, verdict)
	}
	return code
}
