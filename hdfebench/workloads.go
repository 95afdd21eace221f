package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"hdfe/internal/core"
	"hdfe/internal/dataset"
	"hdfe/internal/drift"
	"hdfe/internal/hv"
	"hdfe/internal/ml/hamming"
)

// runServing runs score-open or batch-closed. setup_s is cohort
// synthesis + BuildDeployment + serve.New until /healthz answers; latency
// is per request, from its due time on the open loop and from its send on
// the closed loop; accuracy is the share of the cohort whose served
// prediction equals its label.
func runServing(opts options, spec servingSpec, rep *report) error {
	r := newServingRun(opts, spec, rep)
	if opts.trace {
		return r.tracedRun()
	}
	s, err := r.setup(passCfg{})
	if err != nil {
		return err
	}
	p, err := r.measure(s, nil)
	if err != nil {
		return err
	}
	r.reportEndToEnd(p)
	acc := r.accuracy()
	rep.set("accuracy", acc)
	checkGolden(rep, opts.workload, opts.seed, acc)
	return nil
}

// tracedRun measures the per-layer metrics: an untraced pass (the
// baseline for the runtime metrics and for the tracing overhead), a
// traced pass, on score-open a pass with the audit trail off and one with
// profiler captures off (telemetry priced as on minus off), and the
// layer microloops over the workload's cohort.
func (r *servingRun) tracedRun() error {
	if err := r.build(); err != nil {
		return err
	}
	if err := r.prepare(); err != nil {
		return err
	}
	runPass := func(pc passCfg) (*pass, error) {
		s, err := r.boot(pc)
		if err != nil {
			return nil, err
		}
		return r.measure(s, pc.tracer)
	}
	base, err := runPass(passCfg{})
	if err != nil {
		return err
	}
	base.win.setRuntime(r.rep, base.records)
	r.rep.set("prof.captures_in_window", float64(base.captures))
	if r.spec.open {
		r.rep.set("loadgen.late_p99_ms", lateP99(base.samples))
	}
	tr := newTracer()
	traced, err := runPass(passCfg{tracer: tr})
	if err != nil {
		return err
	}
	per := tr.analyzeServing(r.rep, func(req int64) uint64 {
		return rowKey(r.ds.X[r.reqs[int(req)%len(r.reqs)].recs[0]])
	})
	reportSelf(r.rep, per, median(latencies(base.samples)), median(latencies(traced.samples)))
	if err := writeSpans(r.rep, tr, r.opts); err != nil {
		return err
	}
	if r.spec.audit {
		noAudit, err := runPass(passCfg{auditOff: true})
		if err != nil {
			return err
		}
		noProf, err := runPass(passCfg{profOff: true})
		if err != nil {
			return err
		}
		cpu := base.win.cpuPerRecordUs(base.records)
		r.rep.set("telemetry.audit_us_per_record", cpu-noAudit.win.cpuPerRecordUs(noAudit.records))
		r.rep.set("telemetry.prof_us_per_record", cpu-noProf.win.cpuPerRecordUs(noProf.records))
	}
	measureLayers(r.rep, []*dataset.Dataset{r.ds}, []*core.Deployment{r.dep}, true)
	return nil
}

func writeSpans(rep *report, tr *tracer, opts options) error {
	path := filepath.Join(opts.out, fmt.Sprintf("spans-%s-seed%d.jsonl", opts.workload, opts.seed))
	n, err := tr.write(path)
	if err != nil {
		return err
	}
	rep.set("trace.spans", float64(n))
	rep.note("trace: %d spans written to %s", n, path)
	return nil
}

// fitSetupReps is how many times fit-loocv synthesizes its cohorts;
// setup_s is the median.
const fitSetupReps = 25

// fitRun is the fit-loocv workload: the paper's pure-HDC path with no
// server. One operation is BuildDeployment on Pima M and then on Sylhet
// with one of fitConfigs seed-derived encoder seeds, cycled in order.
type fitRun struct {
	opts    options
	rep     *report
	cohorts []*dataset.Dataset
	seeds   []uint64
	first   map[[2]int]*core.Deployment // first deployment per (config, cohort)
}

// runFitLOOCV: setup_s is cohort synthesis only; latency is per
// operation; records_per_s counts training records fitted and
// LOOCV-classified.
func runFitLOOCV(opts options, rep *report) error {
	f := &fitRun{opts: opts, rep: rep, first: map[[2]int]*core.Deployment{}}
	var times []float64
	for i := 0; i < fitSetupReps; i++ {
		start := time.Now()
		f.cohorts = []*dataset.Dataset{pimaCohort(opts.seed), sylhetCohort(opts.seed)}
		times = append(times, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(times))
	for k := 0; k < fitConfigs; k++ {
		f.seeds = append(f.seeds, splitmix(opts.seed, streamFit+uint64(k)))
	}
	if _, err := f.op(0, nil); err != nil { // warm-up
		return err
	}
	base, lat, err := f.window(nil)
	if err != nil {
		return err
	}
	acc := f.checkAccuracy()
	if !opts.trace {
		tail, _ := tailLatency(lat)
		rep.set("latency_p50_ms", median(lat))
		rep.set("latency_p95_ms", tail)
		rep.set("records_per_s", float64(base.records)/base.win.elapsed.Seconds())
		rep.set("cpu_us_per_record", base.win.cpuPerRecordUs(base.records))
		rep.set("accuracy", acc)
		checkGolden(rep, opts.workload, opts.seed, acc)
		rep.note("latency: %d operations of %d records each (p95 is the nearest rank, %d beyond it)",
			len(lat), base.records/len(lat), beyond(len(lat), tailQ))
		return nil
	}
	base.win.setRuntime(rep, base.records)
	tr := newTracer()
	_, tlat, err := f.window(tr)
	if err != nil {
		return err
	}
	reportSelf(rep, f.analyze(tr), median(lat), median(tlat))
	if err := writeSpans(rep, tr, opts); err != nil {
		return err
	}
	deps := []*core.Deployment{f.first[[2]int{0, 0}], f.first[[2]int{0, 1}]}
	measureLayers(rep, f.cohorts, deps, false)
	return nil
}

// window runs operations for the measured window, at least one per
// encoder seed, and returns the pass and each operation's latency in ms.
func (f *fitRun) window(tr *tracer) (*pass, []float64, error) {
	var lat []float64
	p := &pass{win: openWindow()}
	deadline := time.Now().Add(f.opts.seconds)
	for i := 0; time.Now().Before(deadline) || i < fitConfigs; i++ {
		d, err := f.op(i, tr)
		if err != nil {
			return nil, nil, err
		}
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		for _, c := range f.cohorts {
			p.records += len(c.X)
		}
	}
	p.win.close()
	return p, lat, nil
}

// op runs operation i and checks that every deployment it builds equals
// the first one built for the same encoder seed and cohort. Traced, it
// runs BuildDeployment's public steps one by one, each in a span.
func (f *fitRun) op(i int, tr *tracer) (time.Duration, error) {
	k := i % fitConfigs
	deps := make([]*core.Deployment, len(f.cohorts))
	start := time.Now()
	var root span
	if tr != nil {
		root = span{ID: tr.id(), Name: "loadgen.op", Req: int64(i), Start: tr.now()}
	}
	for c, d := range f.cohorts {
		var err error
		if tr == nil {
			deps[c], err = buildDeployment(d, f.seeds[k])
		} else {
			deps[c], err = tracedBuild(tr, root, d, f.seeds[k])
		}
		if err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if tr != nil {
		root.End = tr.now()
		tr.add(root)
	}
	for c, dep := range deps {
		if f.opts.corrupt == "accuracy" && i == 0 && c == 0 {
			dep.Ref.Baseline.LOOCVAccuracy = math.Nextafter(dep.Ref.Baseline.LOOCVAccuracy, 2)
		}
		key := [2]int{k, c}
		first, ok := f.first[key]
		if !ok {
			f.first[key] = dep
			continue
		}
		same := math.Float64bits(dep.Ref.Baseline.LOOCVAccuracy) == math.Float64bits(first.Ref.Baseline.LOOCVAccuracy) &&
			dep.NegProto.Equal(first.NegProto) && dep.PosProto.Equal(first.PosProto)
		f.rep.check(same, "%s: deployment %d for encoder seed %d differs from the first one built", f.cohorts[c].Name, i, f.seeds[k])
	}
	return elapsed, nil
}

// tracedBuild is core.BuildDeployment spelled out in its public steps:
// fit, transform, prototypes, leave-one-out and drift reference.
func tracedBuild(tr *tracer, root span, d *dataset.Dataset, seed uint64) (*core.Deployment, error) {
	step := func(name string, fn func()) {
		s := span{ID: tr.id(), Parent: root.ID, Name: name, Req: root.Req, Start: tr.now()}
		fn()
		s.End = tr.now()
		tr.add(s)
	}
	opts := core.Options{Seed: seed}
	specs := core.SpecsFor(d.Features)
	ext := core.NewExtractor(opts)
	var err error
	step("core.fit", func() { err = ext.Fit(specs, d.X) })
	if err != nil {
		return nil, err
	}
	var vs []hv.Vector
	step("encode.transform", func() { vs = ext.Transform(d.X) })
	var neg, pos hv.Vector
	step("core.prototypes", func() { neg, pos = core.Prototypes(vs, d.Y, opts.Tie) })
	var acc float64
	step("hamming.loocv", func() { acc = hamming.LeaveOneOut(vs, d.Y).Accuracy() })
	var ref *drift.Reference
	step("drift.reference", func() {
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		posCount := 0
		for _, label := range d.Y {
			posCount += label
		}
		ref = drift.BuildReference(names, d.X, drift.DefaultBins, drift.Baseline{
			LOOCVAccuracy: acc,
			TrainRecords:  len(d.Y),
			PosRate:       float64(posCount) / float64(len(d.Y)),
		})
	})
	return &core.Deployment{Extractor: ext, NegProto: neg, PosProto: pos, Ref: ref}, nil
}

// checkAccuracy checks each first deployment's LOOCV accuracy against the
// reference and returns their mean, the workload's accuracy.
func (f *fitRun) checkAccuracy() float64 {
	sum := 0.0
	for k := 0; k < fitConfigs; k++ {
		for c, d := range f.cohorts {
			dep := f.first[[2]int{k, c}]
			got := dep.Ref.Baseline.LOOCVAccuracy
			sum += got
			ref, err := buildReference(dep, d.X, d.Y)
			f.rep.check(err == nil, "%s: %v", d.Name, err)
			if err != nil {
				continue
			}
			want := ref.loocvAccuracy(d.Y)
			f.rep.check(math.Float64bits(got) == math.Float64bits(want),
				"%s encoder seed %d: LOOCV accuracy %v, reference %v", d.Name, f.seeds[k], got, want)
		}
	}
	return sum / float64(fitConfigs*len(f.cohorts))
}

// analyze splits each traced operation into layer self times: the loop
// itself (loadgen), core (fit and prototypes), encode (transform),
// hamming (leave-one-out) and drift (reference).
func (f *fitRun) analyze(tr *tracer) []selfTimes {
	layerOf := map[string]string{
		"core.fit": "core", "core.prototypes": "core", "encode.transform": "encode",
		"hamming.loocv": "hamming", "drift.reference": "drift",
	}
	ops := map[int64]selfTimes{}
	var order []int64
	for _, s := range tr.spans {
		if s.Name == "loadgen.op" {
			continue
		}
		st, ok := ops[s.Parent]
		if !ok {
			st = selfTimes{}
			ops[s.Parent] = st
			order = append(order, s.Parent)
		}
		st[layerOf[s.Name]] += s.dur()
		st["loadgen"] -= s.dur()
	}
	for _, s := range tr.spans {
		if st, ok := ops[s.ID]; ok && s.Name == "loadgen.op" {
			st["loadgen"] += s.dur()
		}
	}
	out := make([]selfTimes, 0, len(order))
	for _, id := range order {
		out = append(out, ops[id])
	}
	return out
}
