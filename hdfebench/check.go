package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/synth"
)

// The reference below recomputes a deployment's outputs without the
// program's bundling, prototype or distance kernels: per-bit counting
// over each feature's codeword (encode.Codebook.EncodeFeature), majority
// by comparison, and distances by popcount over words. Only the
// per-feature codewords come from the program, and the level ones are
// checked against the paper's distance property on the way.

type refModel struct {
	recs     [][]uint64 // reference record hypervectors
	neg, pos []uint64   // reference class prototypes
}

// buildReference encodes every record of X the reference way and bundles
// the class prototypes. It reports the first disagreement with dep's
// codebook (level-encoder distance) or prototypes as an error.
func buildReference(dep *core.Deployment, X [][]float64, y []int) (*refModel, error) {
	cb := dep.Codebook()
	if cb.Mode() != encode.Majority {
		return nil, fmt.Errorf("reference: only the paper's majority mode is modelled")
	}
	dim, nf := cb.Dim(), cb.NumFeatures()
	words := (dim + 63) / 64
	counts := make([]int32, dim)
	ref := &refModel{recs: make([][]uint64, len(X))}
	for i, row := range X {
		clear(counts)
		for j := 0; j < nf; j++ {
			v := cb.EncodeFeature(j, row[j])
			if lvl, ok := cb.Feature(j).(*encode.LevelEncoder); ok {
				if d := popXor(lvl.Seed().Words(), v.Words()); d != lvl.Flips(row[j]) {
					return nil, fmt.Errorf("reference: feature %d value %v is %d bits from its seed, want %d flips", j, row[j], d, lvl.Flips(row[j]))
				}
			}
			addBits(counts, v.Words())
		}
		ref.recs[i] = majority(counts, nf, cb.Tie(), words)
	}
	var classCount [2]int
	var classCounts [2][]int32
	for c := range classCounts {
		classCounts[c] = make([]int32, dim)
	}
	for i, rec := range ref.recs {
		classCount[y[i]]++
		addBits(classCounts[y[i]], rec)
	}
	ref.neg = majority(classCounts[0], classCount[0], cb.Tie(), words)
	ref.pos = majority(classCounts[1], classCount[1], cb.Tie(), words)
	if !slices.Equal(ref.neg, dep.NegProto.Words()) || !slices.Equal(ref.pos, dep.PosProto.Words()) {
		return nil, fmt.Errorf("reference: class prototypes differ from the deployment's")
	}
	return ref, nil
}

// score is the reference ClassAffinity of record i.
func (r *refModel) score(i int) float64 {
	dNeg := float64(popXor(r.recs[i], r.neg))
	dPos := float64(popXor(r.recs[i], r.pos))
	if dNeg+dPos == 0 {
		return 0.5
	}
	return dNeg / (dNeg + dPos)
}

// loocvAccuracy is the reference leave-one-out 1-NN accuracy: each record
// takes the label of its nearest other record, the lowest index winning
// ties.
func (r *refModel) loocvAccuracy(y []int) float64 {
	correct := 0
	for i, a := range r.recs {
		best, bestDist := -1, 0
		for j, b := range r.recs {
			if j == i {
				continue
			}
			if d := popXor(a, b); best == -1 || d < bestDist {
				best, bestDist = j, d
			}
		}
		if y[best] == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

func addBits(counts []int32, words []uint64) {
	for w, word := range words {
		for word != 0 {
			counts[w*64+bits.TrailingZeros64(word)]++
			word &= word - 1
		}
	}
}

func majority(counts []int32, n int, tie hv.TieBreak, words int) []uint64 {
	out := make([]uint64, words)
	for b, c := range counts {
		twice := 2 * int(c)
		if twice > n || twice == n && tie == hv.TieToOne {
			out[b/64] |= 1 << (b % 64)
		}
	}
	return out
}

func popXor(a, b []uint64) int {
	d := 0
	for i := range a {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// checkScores compares dep.Score of every record with the reference and
// returns the in-process scores the served ones must equal bit for bit.
func checkScores(rep *report, dep *core.Deployment, d *dataset.Dataset) []float64 {
	want := make([]float64, len(d.X))
	for i, row := range d.X {
		want[i] = dep.Score(row)
	}
	ref, err := buildReference(dep, d.X, d.Y)
	rep.check(err == nil, "%s: %v", d.Name, err)
	if err != nil {
		return want
	}
	bad := 0
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(ref.score(i)) {
			bad++
		}
	}
	rep.check(bad == 0, "%s: %d of %d Deployment.Score values differ from the reference", d.Name, bad, len(want))
	return want
}

// Cohorts and deployments, all derived from the workload seed.

func pimaCohort(seed uint64) *dataset.Dataset { return synth.PimaM(seed) }

func sylhetCohort(seed uint64) *dataset.Dataset {
	return synth.Sylhet(synth.DefaultSylhetConfig(seed))
}

func buildDeployment(d *dataset.Dataset, encSeed uint64) (*core.Deployment, error) {
	return core.BuildDeployment(core.SpecsFor(d.Features), d.X, d.Y, core.Options{Seed: encSeed})
}

// fitConfigs is how many encoder seeds fit-loocv cycles through.
const fitConfigs = 2

//go:embed golden.json
var goldenJSON []byte

// golden holds each workload's expected accuracy per seed.
type golden map[string]map[string]float64

func loadGolden() golden {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("golden.json: " + err.Error())
	}
	return g
}

// checkGolden compares a run's accuracy with the recorded value for its
// seed, when the table has one.
func checkGolden(rep *report, workload string, seed uint64, acc float64) {
	want, ok := loadGolden()[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		rep.note("accuracy: seed %d not in golden.json; checked against the reference only", seed)
		return
	}
	rep.check(math.Float64bits(acc) == math.Float64bits(want), "%s accuracy %v, golden.json records %v for seed %d", workload, acc, want, seed)
}

// expectedAccuracy computes a workload's accuracy for seed in process,
// the way the run itself derives it: served-prediction accuracy over the
// whole cohort for the serving workloads, mean LOOCV accuracy over the
// encoder seeds for fit-loocv.
func expectedAccuracy(workload string, seed uint64) (float64, error) {
	switch workload {
	case "score-open", "batch-closed":
		d := pimaCohort(seed)
		if workload == "batch-closed" {
			d = sylhetCohort(seed)
		}
		dep, err := buildDeployment(d, splitmix(seed, streamEncoder))
		if err != nil {
			return 0, err
		}
		correct := 0
		for i, row := range d.X {
			if predict(dep.Score(row)) == d.Y[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(d.X)), nil
	default:
		sum := 0.0
		for k := 0; k < fitConfigs; k++ {
			for _, d := range []*dataset.Dataset{pimaCohort(seed), sylhetCohort(seed)} {
				dep, err := buildDeployment(d, splitmix(seed, streamFit+uint64(k)))
				if err != nil {
					return 0, err
				}
				sum += dep.Ref.Baseline.LOOCVAccuracy
			}
		}
		return sum / (2 * fitConfigs), nil
	}
}

func predict(score float64) int {
	if score >= 0.5 {
		return 1
	}
	return 0
}

// goldenMain prints the golden table for a seed range.
func goldenMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	from := fs.Uint64("from", 1, "first seed")
	to := fs.Uint64("to", 64, "last seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := golden{}
	for _, wl := range workloads {
		g[wl] = map[string]float64{}
		for s := *from; s <= *to; s++ {
			acc, err := expectedAccuracy(wl, s)
			if err != nil {
				return err
			}
			g[wl][strconv.FormatUint(s, 10)] = acc
		}
	}
	blob, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", blob)
	return err
}
