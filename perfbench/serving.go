package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"sketchsp/internal/obs"
)

// opTimeout bounds every served operation; one that runs out counts as
// failed.
const opTimeout = 30 * time.Second

// openShare of a serving run's seconds goes to the open-loop phase at the
// workload's fixed rate, the rest to the closed phase with nproc callers.
const openShare = 0.7

// servingRun is the measured part of a serving workload: the phases and,
// for a traced run, the /metrics and byte-count deltas over its traced
// phases.
type servingRun struct {
	base, open, closed *phase // base: untraced open half of a traced run
	server             []series
	client             series
	bytesOut, bytesIn  int64 // request and response bytes of the benchmark's client
	clientCalls        int
}

// serving drives a stack through its phases. openOp(i) performs open-loop
// operation i of a sequence fixed by the seed; closedOp(c, k) performs
// caller c's k-th closed-loop operation.
type serving struct {
	rc       *runCtx
	rate     float64
	fc       *frontClient
	sc       *scraper
	openOp   func(i int) opResult
	closedOp func(c, k int) opResult
}

func (s *serving) run() (*servingRun, error) {
	rc := s.rc
	n := int(math.Round(s.rate * openShare * rc.seconds))
	sched := poissonSchedule(rc.seed, s.rate, n)
	closedDur := time.Duration((1 - openShare) * rc.seconds * float64(time.Second))
	sr := &servingRun{}
	if !rc.trace {
		recs, wall := openLoop(sched, s.openOp)
		sr.open = newPhase("open", false, recs, wall)
		recs, wall = closedLoop(rc.workers, closedDur, s.closedOp)
		sr.closed = newPhase("closed", false, recs, wall)
		return sr, nil
	}
	// Traced run: the schedule's first half runs untraced as the overhead
	// baseline, the second half and a closed phase of half length traced.
	half := n / 2
	recs, wall := openLoop(sched[:half], s.openOp)
	sr.base = newPhase("open-base", false, recs, wall)
	shifted := make([]time.Duration, n-half)
	for i := range shifted {
		shifted[i] = sched[half+i] - sched[half-1]
	}
	before, err := s.sc.snapshot()
	if err != nil {
		return nil, err
	}
	cBefore, err := registrySeries(s.fc.reg)
	if err != nil {
		return nil, err
	}
	out0, in0 := s.fc.rt.bytesOut.Load(), s.fc.rt.bytesIn.Load()
	rc.t.on.Store(true)
	recs, wall = openLoop(shifted, func(i int) opResult { return s.openOp(half + i) })
	sr.open = newPhase("open", true, recs, wall)
	recs, wall = closedLoop(rc.workers, closedDur/2, s.closedOp)
	sr.closed = newPhase("closed", true, recs, wall)
	rc.t.on.Store(false)
	after, err := s.sc.snapshot()
	if err != nil {
		return nil, err
	}
	cAfter, err := registrySeries(s.fc.reg)
	if err != nil {
		return nil, err
	}
	sr.server = deltas(before, after)
	sr.client = delta(cBefore, cAfter)
	sr.bytesOut, sr.bytesIn = s.fc.rt.bytesOut.Load()-out0, s.fc.rt.bytesIn.Load()-in0
	sr.clientCalls = sr.open.Sent + sr.closed.Sent
	return sr, nil
}

// phases lists the run's phases in order.
func (sr *servingRun) phases() []*phase {
	var out []*phase
	for _, p := range []*phase{sr.base, sr.open, sr.closed} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// endToEnd computes the serving workloads' end-to-end metrics from an
// untraced run: open-loop read latency from each read's due time, the
// per-request rates of dense and SJLT sketches over the open-loop reads'
// call times, and the closed phase's throughput.
func (sr *servingRun) endToEnd(setupS float64) (map[string]float64, []string, error) {
	reads := sr.open.latencies(isRead)
	if err := checkMedian("open-loop reads", reads); err != nil {
		return nil, nil, err
	}
	e2e := map[string]float64{
		"latency_p50_ms":      percentile(reads, 50),
		"capacity_rps":        sr.closed.windowRate(one),
		"sketch_gflops":       sr.open.perOpRate(isDense, flopsOf) / 1e9,
		"sjlt_sketches_per_s": sr.open.perOpRate(isSJLT, one),
		"setup_s":             setupS,
	}
	notes := []string{
		latencyNote("open-loop reads", reads),
		latencyNote("open-loop writes", sr.open.latencies(isWrite)),
		fmt.Sprintf("open-loop generator late: p99 %.3f ms", lateP99(sr.open)),
		fmt.Sprintf("closed-phase ops/s per %v window: %v", rateWindow, sr.closed.windowRates(one)),
	}
	return e2e, notes, nil
}

// layerCommon fills the per-layer metrics every serving workload shares:
// the trace split, the front stack's HTTP and client series, and the
// generator's lateness. front is the series of the server the client talks
// to; all sums every server of the stack.
func (sr *servingRun) layerCommon(L map[string]float64, ts traceStats, front, all series) {
	reqs := front.sum("sketchsp_http_requests_total")
	L["http.self_ms"] = ts.rootMinusP50(layerBackend)
	L["http.decode_s"] = ratio(all.sum("sketchsp_http_decode_seconds_sum"), reqs)
	L["http.encode_s"] = ratio(all.sum("sketchsp_http_encode_seconds_sum"), reqs)
	L["http.bytes_in_per_req"] = ratio(float64(sr.bytesOut), float64(sr.clientCalls))
	L["http.bytes_out_per_req"] = ratio(float64(sr.bytesIn), float64(sr.clientCalls))
	L["client.retries"] = sr.client.sum("sketchsp_client_retries_total")
	L["gen.late_p99_ms"] = lateP99(sr.open)
	L["trace.overhead"] = ratio(percentile(sr.open.latencies(isRead), 50), percentile(sr.base.latencies(isRead), 50))
	ts.setSelf(L)
}

// traced returns the traced phases' records.
func (sr *servingRun) traced() []opRecord {
	return append(append([]opRecord(nil), sr.open.recs...), sr.closed.recs...)
}

func lateP99(p *phase) float64 {
	xs := make([]float64, len(p.recs))
	for i, r := range p.recs {
		xs[i] = ms(r.late)
	}
	return percentile(sortedCopy(xs), 99)
}

// registrySeries renders a registry that no server exposes (the client's)
// in the exposition format and parses it like a scrape.
func registrySeries(r *obs.Registry) (series, error) {
	var b bytes.Buffer
	if err := r.WriteText(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

// timed runs one client call under a per-operation deadline and, when
// tracing, a root span; it fills the result's timing and request ID.
func timed(rc *runCtx, op string, res opResult, call func(ctx context.Context) error) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	ctx, sp := rc.t.root(ctx, layerClient, op)
	t0 := time.Now()
	res.err = call(ctx)
	res.call = time.Since(t0)
	sp.end()
	if sp != nil {
		res.req = sp.s.Req
	}
	return res
}
