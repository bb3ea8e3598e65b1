package main

import (
	"context"
	"fmt"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
)

// serve-inline: one in-process server over a service.Service whose plan
// cache holds fewer plans than the working set; inline POST /v1/sketch of
// K matrices of ~1 MB frames with Zipf popularity, dense Uniform11 S, and
// one request in inlineSJLTEvery using SJLT S on the same matrices.
const (
	inlineK   = 12
	inlineM   = 20000
	inlineN   = 1000
	inlineNNZ = 30000 // 16 B per nonzero on the wire: ~0.5 MB frames
	inlineD   = 16
	// inlinePlanCache plans fit in the service's cache; the working set is
	// inlineK matrices × 2 op classes.
	inlinePlanCache = 8
	inlineZipfS     = 1.1
	inlineSJLTEvery = 8
	// inlineRate is the open-loop Poisson rate in requests per second:
	// about half the capacity_rps this workload measured on its first
	// commit. It is fixed here, never re-derived per run.
	inlineRate      = 65
	inlineSetupReps = 9
)

type inlineInputs struct {
	a    []*sparse.CSC
	opts [2]core.Options    // dense, SJLT
	ref  [][2]*dense.Matrix // per matrix and class
	flop []float64          // 2·nnz·d per matrix (dense class)
}

type inlineOp struct{ mat, class int }

// inlineOpAt is the i-th operation of a stream: the matrix is drawn by
// popularity, the class follows a fixed cycle so every run has the same
// SJLT share.
func inlineOpAt(z zipfPicker, i int) inlineOp {
	op := inlineOp{mat: z.next()}
	if i%inlineSJLTEvery == inlineSJLTEvery-1 {
		op.class = 1
	}
	return op
}

func runServeInline(rc *runCtx) (*outcome, error) {
	r := seeded(rc.seed, saltInputs)
	in := &inlineInputs{}
	in.opts[0] = core.Options{Dist: rng.Uniform11, Seed: r.Uint64(), Workers: rc.workers}
	in.opts[1] = core.Options{Dist: rng.SJLT, Seed: r.Uint64(), Workers: rc.workers}
	for k := 0; k < inlineK; k++ {
		a := sparse.RandomUniform(inlineM, inlineN, float64(inlineNNZ)/(inlineM*inlineN), r.Int63())
		var refs [2]*dense.Matrix
		for c := range refs {
			ref, err := directSketch(a, inlineD, in.opts[c])
			if err != nil {
				return nil, fmt.Errorf("reference %d/%d: %w", k, c, err)
			}
			refs[c] = ref
		}
		in.a = append(in.a, a)
		in.ref = append(in.ref, refs)
		in.flop = append(in.flop, 2*float64(a.NNZ())*inlineD)
	}
	openOps := make([]inlineOp, int(rc.seconds*openShare*inlineRate)+1)
	z := newZipfPicker(seeded(rc.seed, saltMix), inlineZipfS, inlineK)
	for i := range openOps {
		openOps[i] = inlineOpAt(z, i)
	}

	out := newOutcome()
	var st *inlineStack
	var setups []float64
	for rep := 0; rep < inlineSetupReps; rep++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		st, err = startInline(rc)
		if err != nil {
			return nil, err
		}
		// Warm-up: one request per matrix and class.
		for k := 0; k < inlineK; k++ {
			for c := 0; c < 2; c++ {
				res := st.sketch(rc, in, inlineOp{k, c})
				if res.err != nil {
					st.close()
					return nil, fmt.Errorf("warm-up: %w", res.err)
				}
				if res.mismatch {
					out.setupMismatches++
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()
	out.setupS = median(setups)

	callers := closedPickers(rc, inlineZipfS, inlineK)
	sv := &serving{rc: rc, rate: inlineRate, fc: st.fc, sc: st.sc,
		openOp: func(i int) opResult { return st.sketch(rc, in, openOps[i]) },
		closedOp: func(c, k int) opResult {
			return st.sketch(rc, in, inlineOpAt(callers[c], k))
		},
	}
	sr, err := sv.run()
	if err != nil {
		return nil, err
	}
	out.phases = sr.phases()
	if !rc.trace {
		out.e2e, out.notes, err = sr.endToEnd(out.setupS)
		return out, err
	}
	out.spans = rc.t.take()
	ts := summarizeTrace(out.spans, sr.traced(), isRead)
	if err := ts.check(); err != nil {
		return nil, err
	}
	m := sr.server[0]
	reqs := m.sum("sketchsp_http_requests_total")
	L := out.layer
	L["service.backend_ms"] = ts.spanP50(layerBackend)
	L["service.queue_wait_s"] = ratio(m.sum("sketchsp_service_queue_wait_seconds_sum"), reqs)
	hits, misses := m.sum("sketchsp_service_cache_hits_total"), m.sum("sketchsp_service_cache_misses_total")
	L["service.plan_hit_ratio"] = ratio(hits, hits+misses)
	L["service.plan_builds"] = m.sum("sketchsp_service_plan_builds_total")
	L["service.shed"] = m.sum("sketchsp_service_shed_total")
	L["plan.execute_s"] = ratio(m.sum("sketchsp_plan_execute_seconds_sum"), reqs)
	sr.layerCommon(L, ts, m, m)
	out.notes = append(out.notes, fmt.Sprintf("traced %d reads; %d orphan spans", ts.reqs, ts.orphans))
	return out, nil
}

// inlineStack is the serve-inline program under test.
type inlineStack struct {
	ls *loopServer
	fc *frontClient
	sc *scraper
}

func startInline(rc *runCtx) (*inlineStack, error) {
	reg := obs.NewRegistry()
	svc := service.New(service.Config{Capacity: inlinePlanCache, Metrics: reg})
	ls, err := startServer(svc, reg, rc.t, layerServer, layerBackend)
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &inlineStack{ls: ls, fc: newFrontClient(ls.URL, rc.t, rc.workers), sc: newScraper(ls.URL)}, nil
}

func (s *inlineStack) close() {
	s.fc.close()
	s.sc.close()
	s.ls.close()
}

func (s *inlineStack) sketch(rc *runCtx, in *inlineInputs, op inlineOp) opResult {
	res := opResult{kind: opRead, sjlt: op.class == 1}
	if op.class == 0 {
		res.flops = in.flop[op.mat]
	}
	var ahat *dense.Matrix
	res = timed(rc, "read", res, func(ctx context.Context) error {
		var err error
		ahat, _, err = s.fc.cli.Sketch(ctx, in.a[op.mat], inlineD, in.opts[op.class])
		return err
	})
	res.mismatch = res.err == nil && !bitEqual(ahat, in.ref[op.mat][op.class])
	return res
}
