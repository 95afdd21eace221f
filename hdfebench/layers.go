package main

import (
	"time"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/drift"
	"hdfe/internal/encode"
	"hdfe/internal/hv"
	"hdfe/internal/ml/hamming"
	"hdfe/internal/serve"
)

// microBudget is how long each per-call microloop runs per cohort.
const microBudget = 100 * time.Millisecond

// passReps is how many times each whole-cohort step is timed (median).
const passReps = 3

// measureLayers times the layers' public entry points over the
// workload's own cohorts, single-threaded except where the entry point
// itself fans out (Transform, LeaveOneOut). Per-call metrics average
// over every cohort's records; per-pass metrics sum over the cohorts.
func measureLayers(rep *report, cohorts []*dataset.Dataset, deps []*core.Deployment, serving bool) {
	var recNs, levelNs, addNs, majNs, hamNs, valNs time.Duration
	var recCalls, levelCalls, addCalls, majCalls, hamCalls, valCalls int
	var flips, setBits, records, protoInputs, classes int
	var fitMs, transformMs, protoMs, loocvMs, refMs, distances float64
	for ci, d := range cohorts {
		dep := deps[ci]
		cb := dep.Codebook()
		dim, nf := cb.Dim(), cb.NumFeatures()
		s := hv.NewScratch(dim)
		rec, fv := hv.New(dim), hv.New(dim)

		n := loop(func() {
			for _, row := range d.X {
				cb.EncodeRecordInto(row, rec, s)
			}
		})
		recNs += n.d
		recCalls += n.reps * len(d.X)

		for j := 0; j < nf; j++ {
			lvl, ok := cb.Feature(j).(*encode.LevelEncoder)
			if !ok {
				continue
			}
			n := loop(func() {
				for _, row := range d.X {
					lvl.EncodeInto(row[j], fv)
				}
			})
			levelNs += n.d
			levelCalls += n.reps * len(d.X)
			for _, row := range d.X {
				flips += lvl.Flips(row[j])
			}
		}

		// Feature codewords of up to 64 records, for the bundling loops.
		var words [][]hv.Vector
		for i, row := range d.X {
			cws := make([]hv.Vector, nf)
			for j := range cws {
				cws[j] = cb.EncodeFeature(j, row[j])
				setBits += cws[j].OnesCount()
			}
			if i < 64 {
				words = append(words, cws)
			}
		}
		records += len(d.X)
		acc := hv.NewAccumulator(dim)
		n = loop(func() {
			for _, cws := range words {
				acc.Reset()
				for _, v := range cws {
					acc.Add(v)
				}
			}
		})
		addNs += n.d
		addCalls += n.reps * len(words) * nf
		n = loop(func() {
			for range words {
				acc.MajorityInto(cb.Tie(), rec)
			}
		})
		majNs += n.d
		majCalls += n.reps * len(words)

		vs := dep.Extractor.Transform(d.X)
		sink := 0
		n = loop(func() {
			for i := range vs {
				sink += hv.Hamming(vs[i], vs[(i+1)%len(vs)])
			}
		})
		hamNs += n.d
		hamCalls += n.reps * len(vs)

		if serving {
			v := serve.NewValidator(cb, false, false)
			feats := make([][]*float64, len(d.X))
			for i, row := range d.X {
				feats[i] = make([]*float64, len(row))
				for j := range row {
					feats[i][j] = &row[j]
				}
			}
			dst := make([]float64, nf)
			n = loop(func() {
				for _, f := range feats {
					dst, _, _ = v.Validate(f, dst[:0])
				}
			})
			valNs += n.d
			valCalls += n.reps * len(feats)
		}

		specs := core.SpecsFor(d.Features)
		opts := dep.Options()
		fitMs += timeMs(func() { core.NewExtractor(opts).Fit(specs, d.X) })
		transformMs += timeMs(func() { dep.Extractor.Transform(d.X) })
		protoMs += timeMs(func() { core.Prototypes(vs, d.Y, opts.Tie) })
		loocvMs += timeMs(func() { hamming.LeaveOneOut(vs, d.Y) })
		names := make([]string, len(specs))
		for i, sp := range specs {
			names[i] = sp.Name
		}
		refMs += timeMs(func() { drift.BuildReference(names, d.X, drift.DefaultBins, dep.Ref.Baseline) })
		distances += float64(len(vs) * len(vs))
		for _, label := range []int{0, 1} {
			for _, y := range d.Y {
				if y == label {
					protoInputs++
				}
			}
			classes++
		}
	}
	rep.set("encode.record_ns", perCall(recNs, recCalls))
	rep.set("encode.level_ns_per_feature", perCall(levelNs, levelCalls))
	rep.set("encode.flips_per_record", float64(flips)/float64(records))
	rep.set("hv.add_ns_per_vector", perCall(addNs, addCalls))
	rep.set("hv.set_bits_per_record", float64(setBits)/float64(records))
	rep.set("hv.majority_ns", perCall(majNs, majCalls))
	rep.set("hv.hamming_ns", perCall(hamNs, hamCalls))
	rep.set("hv.prototype_inputs", float64(protoInputs)/float64(classes))
	rep.set("core.fit_ms", fitMs)
	rep.set("core.transform_ms", transformMs)
	rep.set("core.prototypes_ms", protoMs)
	rep.set("hamming.loocv_ms", loocvMs)
	rep.set("hamming.distances_per_pass", distances)
	rep.set("drift.reference_ms", refMs)
	if serving {
		rep.set("serve.validate_ns_per_record", perCall(valNs, valCalls))
	}
}

type looped struct {
	d    time.Duration
	reps int
}

// loop runs fn at least once and until microBudget has passed.
func loop(fn func()) looped {
	start := time.Now()
	reps := 0
	for {
		fn()
		reps++
		if d := time.Since(start); d >= microBudget {
			return looped{d, reps}
		}
	}
}

// timeMs is the median of passReps timings of fn, in ms.
func timeMs(fn func()) float64 {
	xs := make([]float64, passReps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(xs)
}

func perCall(d time.Duration, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}
