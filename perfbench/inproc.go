package main

import (
	"context"
	"fmt"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// sketch-inproc: pre-built plans executed round-robin by one caller over
// three op classes — (a) dense Uniform11 S on a uniform A, (b) the same S
// on a power-law A of equal shape and nnz, (c) SJLT S on the uniform A.
const (
	inprocM     = 20000
	inprocN     = 2000
	inprocNNZ   = 25000
	inprocAlpha = 1.6
	inprocD     = 128
	// inprocSetupReps set-ups are timed; setup_s is their median.
	inprocSetupReps = 9
	// inprocLayouts plans (each with its own output matrix) of every class
	// are executed in turn. How fast one plan instance runs depends on where
	// its buffers landed — SJLT instances of one process differed by up to
	// 18% — so a single instance would make a run's figures depend on
	// allocation luck; cycling through several averages it out in the run.
	inprocLayouts = 8
)

type inprocClass struct {
	name  string
	a     *sparse.CSC
	opts  core.Options
	ref   *dense.Matrix
	out   *dense.Matrix
	plan  *core.Plan // the one the timed set-up built
	plans []*core.Plan
	outs  []*dense.Matrix
	flops float64 // 2·nnz·d for the dense classes
}

func runSketchInproc(rc *runCtx) (*outcome, error) {
	r := seeded(rc.seed, saltInputs)
	au := sparse.RandomUniform(inprocM, inprocN, float64(inprocNNZ)/(inprocM*inprocN), r.Int63())
	ap := sparse.PowerLaw(inprocM, inprocN, au.NNZ(), inprocAlpha, r.Int63())
	denseOpts := core.Options{Dist: rng.Uniform11, Seed: r.Uint64(), Workers: rc.workers}
	sjlt := core.Options{Dist: rng.SJLT, Seed: r.Uint64(), Workers: rc.workers}
	classes := []*inprocClass{
		{name: "uniform", a: au, opts: denseOpts, flops: 2 * float64(au.NNZ()) * inprocD},
		{name: "powerlaw", a: ap, opts: denseOpts, flops: 2 * float64(ap.NNZ()) * inprocD},
		{name: "sjlt", a: au, opts: sjlt},
	}
	// References: a direct sequential plan per class, built before any
	// timing; the measured plans run with Workers = nproc.
	for _, c := range classes {
		ref, err := directSketch(c.a, inprocD, c.opts)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.name, err)
		}
		c.ref = ref
		c.out = dense.NewMatrix(inprocD, c.a.N)
	}

	out := newOutcome()
	// Set-up: build the three plans and run each once (starting the
	// worker pools); repeated, and every repeat's warm-up answer checked.
	var setups, builds []float64
	for rep := 0; rep < inprocSetupReps; rep++ {
		t0 := time.Now()
		for _, c := range classes {
			b0 := time.Now()
			p, err := core.NewPlan(c.a, inprocD, c.opts)
			if err != nil {
				return nil, fmt.Errorf("plan %s: %w", c.name, err)
			}
			builds = append(builds, ms(time.Since(b0)))
			if _, err := p.Execute(c.out); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
			if !bitEqual(c.out, c.ref) {
				out.setupMismatches++
			}
			if c.plan != nil {
				c.plan.Close()
			}
			c.plan = p
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out.setupS = median(setups)
	// The further instances are built after the timed set-ups.
	for _, c := range classes {
		c.plans, c.outs = []*core.Plan{c.plan}, []*dense.Matrix{c.out}
	}
	defer func() {
		for _, c := range classes {
			for _, p := range c.plans {
				p.Close()
			}
		}
	}()
	for _, c := range classes {
		for len(c.plans) < inprocLayouts {
			p, err := core.NewPlan(c.a, inprocD, c.opts)
			if err != nil {
				return nil, fmt.Errorf("plan %s: %w", c.name, err)
			}
			o := dense.NewMatrix(inprocD, c.a.N)
			c.plans, c.outs = append(c.plans, p), append(c.outs, o)
			if _, err := p.Execute(o); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", c.name, err)
			}
			if !bitEqual(o, c.ref) {
				out.setupMismatches++
			}
		}
	}

	dur := time.Duration(rc.seconds * float64(time.Second))
	if !rc.trace {
		ph := inprocLoop(rc, classes, "closed", dur)
		out.phases = append(out.phases, ph)
		denseLat := ph.latencies(isDense)
		if err := checkMedian("dense executes", denseLat); err != nil {
			return nil, err
		}
		out.e2e = map[string]float64{
			"latency_p50_ms":      percentile(denseLat, 50),
			"capacity_rps":        ph.windowRate(one),
			"sketch_gflops":       ph.perOpRate(isDense, flopsOf) / 1e9,
			"sjlt_sketches_per_s": ph.perOpRate(isSJLT, one),
			"setup_s":             out.setupS,
		}
		out.notes = append(out.notes, latencyNote("dense executes", denseLat),
			latencyNote("SJLT executes", ph.latencies(isSJLT)))
		return out, nil
	}

	// Traced run: half untraced (the overhead baseline), half traced.
	base := inprocLoop(rc, classes, "untraced", dur/2)
	rc.t.on.Store(true)
	ph := inprocLoop(rc, classes, "traced", dur/2)
	rc.t.on.Store(false)
	out.phases = append(out.phases, base, ph)
	out.spans = rc.t.take()
	ts := summarizeTrace(out.spans, ph.recs, func(opRecord) bool { return true })
	if err := ts.check(); err != nil {
		return nil, err
	}
	L := out.layer
	var nsPerSample, imb, steals []float64
	for _, r := range ph.recs {
		if r.failed() || r.sjlt {
			continue
		}
		nsPerSample = append(nsPerSample, float64(r.lat)*float64(rc.workers)/float64(r.stats.Samples))
		if r.class == 1 {
			imb = append(imb, r.stats.Imbalance)
			steals = append(steals, float64(r.stats.Steals))
		}
	}
	for ci, c := range classes {
		L["core.execute_ms."+c.name] = percentile(ph.latencies(func(r opRecord) bool { return r.class == ci }), 50)
	}
	L["core.ns_per_sample"] = median(nsPerSample)
	L["core.accumulate_ns_per_sample"] = L["core.ns_per_sample"] - rc.ceil.FillNSPerSample
	L["core.gflops_over_rng_bound"] = ph.perOpRate(isDense, flopsOf) / 1e9 / rngBoundGFlops(rc)
	L["core.imbalance"] = median(imb)
	L["core.steals"] = median(steals)
	L["core.plan_build_ms"] = median(builds)
	L["trace.overhead"] = ratio(percentile(ph.latencies(isDense), 50), percentile(base.latencies(isDense), 50))
	ts.setSelf(L)
	return out, nil
}

// inprocLoop executes the classes round-robin from one caller for dur.
func inprocLoop(rc *runCtx, classes []*inprocClass, name string, dur time.Duration) *phase {
	var recs []opRecord
	start := time.Now()
	for k := 0; time.Since(start) < dur; k++ {
		ci := k % len(classes)
		c := classes[ci]
		inst := k / len(classes) % len(c.plans)
		_, sp := rc.t.root(context.Background(), layerKernel, c.name)
		t0 := time.Now()
		st, err := c.plans[inst].Execute(c.outs[inst])
		lat := time.Since(t0)
		sp.end()
		rec := opRecord{opResult: opResult{kind: opRead, sjlt: c.flops == 0, flops: c.flops, err: err, call: lat},
			lat: lat, done: time.Since(start)}
		if sp != nil {
			rec.req = sp.s.Req
		}
		rec.class, rec.stats = ci, st
		if err == nil && !bitEqual(c.outs[inst], c.ref) {
			rec.mismatch = true
		}
		recs = append(recs, rec)
	}
	return newPhase(name, rc.t.on.Load(), recs, time.Since(start))
}

// directSketch is the reference path: a fresh sequential plan, executed
// once. Bits do not depend on the worker count.
func directSketch(a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, error) {
	opts.Workers = 1
	p, err := core.NewPlan(a, d, opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out := dense.NewMatrix(d, a.N)
	if _, err := p.Execute(out); err != nil {
		return nil, err
	}
	return out, nil
}

// rngBoundGFlops is the GFlop/s a dense kernel could reach if generating
// its samples were the only cost: 2 flops per sample, one sample per
// rng.fill_ns_per_sample on each worker.
func rngBoundGFlops(rc *runCtx) float64 {
	return 2 * float64(rc.workers) / rc.ceil.FillNSPerSample
}
