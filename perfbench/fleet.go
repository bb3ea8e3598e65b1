package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/shard"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

// fleet-byref: a coordinator (2 peers, 4 shards, batching on, hedging at
// the 0.95 quantile) behind its own server, over 2 in-process worker
// servers. Matrices are uploaded once; about 90% of operations are by-ref
// reads and 10% PATCH writes of a small ΔA, after which reads of that
// matrix use the new fingerprint. A is small-integer-valued and S is
// Rademacher (or SJLT with s = 4, entries ±1/2), so every sum is exact and
// incremental PATCH answers equal a full resketch bit for bit.
const (
	fleetK          = 6
	fleetM          = 4000
	fleetN          = 1000
	fleetNNZ        = 10000
	fleetD          = 16
	fleetPeers      = 2
	fleetShards     = 4
	fleetHedgeQ     = 0.95
	fleetZipfS      = 1.1
	fleetWriteEvery = 10 // one operation in fleetWriteEvery is a write
	fleetSJLTEvery  = 8  // one read in fleetSJLTEvery is an SJLT sketch
	fleetSJLTS      = 4
	// fleetDeltas ΔA per matrix are prepared with their references; writes
	// cycle through them.
	fleetDeltas = 32
	// fleetDeltaEntries nonzeros of A change per write, by a small integer,
	// without cancelling: nnz per column is kept, so the coordinator's
	// nnz-balanced shard cuts stay put.
	fleetDeltaEntries = 4
	// fleetRate is the open-loop Poisson rate in operations per second:
	// about half the capacity_rps this workload measured on its first
	// commit. It is fixed here, never re-derived per run.
	fleetRate      = 200
	fleetSetupReps = 9
)

type fleetInputs struct {
	base  []*sparse.CSC
	delta [][]*sparse.CSC        // [k][j]: ΔA number j of matrix k
	fp    [][]sparse.Fingerprint // [k][v]: version 0 is A, v = j+1 is A+ΔA_j
	ref   [][][2]*dense.Matrix   // [k][v][class]
	opts  [2]core.Options        // Rademacher, SJLT
	flop  []float64              // 2·nnz·d of a dense read of matrix k
}

type fleetOp struct {
	kind       opKind
	mat, class int
}

// fleetOpAt is the i-th operation of a stream: the matrix is drawn by
// popularity, kind and class follow fixed cycles so every run has the same
// write and SJLT shares.
func fleetOpAt(z zipfPicker, i int) fleetOp {
	op := fleetOp{mat: z.next()}
	switch {
	case i%fleetWriteEvery == fleetWriteEvery-1:
		op.kind = opWrite
	case i%fleetSJLTEvery == fleetSJLTEvery-1:
		op.class = 1
	}
	return op
}

// smallIntMatrix is a uniform random pattern with values in ±{1,2,3}.
func smallIntMatrix(r *rand.Rand) *sparse.CSC {
	a := sparse.RandomUniform(fleetM, fleetN, float64(fleetNNZ)/(fleetM*fleetN), r.Int63())
	for i := range a.Val {
		a.Val[i] = float64(1 + r.Intn(3))
		if r.Intn(2) == 0 {
			a.Val[i] = -a.Val[i]
		}
	}
	return a
}

// smallDelta changes fleetDeltaEntries stored entries of a, all in one
// column where it has enough of them, by ±1 or ±2 without reaching 0.
func smallDelta(r *rand.Rand, a *sparse.CSC) *sparse.CSC {
	coo := sparse.NewCOO(a.M, a.N, fleetDeltaEntries)
	for picked := 0; picked < fleetDeltaEntries; {
		j := r.Intn(a.N)
		rows, vals := a.ColView(j)
		for _, p := range r.Perm(len(rows)) {
			if picked == fleetDeltaEntries {
				break
			}
			d := float64(1 + r.Intn(2))
			if r.Intn(2) == 0 {
				d = -d
			}
			if vals[p]+d == 0 {
				d = -d
			}
			coo.Append(rows[p], j, d)
			picked++
		}
	}
	return coo.ToCSC()
}

func prepareFleet(rc *runCtx) (*fleetInputs, error) {
	r := seeded(rc.seed, saltInputs)
	in := &fleetInputs{}
	in.opts[0] = core.Options{Dist: rng.Rademacher, Seed: r.Uint64(), Workers: rc.workers}
	in.opts[1] = core.Options{Dist: rng.SJLT, Sparsity: fleetSJLTS, Seed: r.Uint64(), Workers: rc.workers}
	for k := 0; k < fleetK; k++ {
		a := smallIntMatrix(r)
		versions := []*sparse.CSC{a}
		var deltas []*sparse.CSC
		for j := 0; j < fleetDeltas; j++ {
			d := smallDelta(r, a)
			v, err := sparse.Add(a, d)
			if err != nil {
				return nil, err
			}
			deltas = append(deltas, d)
			versions = append(versions, v)
		}
		fps := make([]sparse.Fingerprint, len(versions))
		refs := make([][2]*dense.Matrix, len(versions))
		for v, av := range versions {
			fps[v] = av.Fingerprint()
			for c := range refs[v] {
				ref, err := directSketch(av, fleetD, in.opts[c])
				if err != nil {
					return nil, fmt.Errorf("reference %d/%d/%d: %w", k, v, c, err)
				}
				refs[v][c] = ref
			}
		}
		in.base = append(in.base, a)
		in.delta = append(in.delta, deltas)
		in.fp = append(in.fp, fps)
		in.ref = append(in.ref, refs)
		in.flop = append(in.flop, 2*float64(a.NNZ())*fleetD)
	}
	return in, nil
}

func runFleetByref(rc *runCtx) (*outcome, error) {
	in, err := prepareFleet(rc)
	if err != nil {
		return nil, err
	}
	openOps := make([]fleetOp, int(rc.seconds*openShare*fleetRate)+1)
	z := newZipfPicker(seeded(rc.seed, saltMix), fleetZipfS, fleetK)
	for i := range openOps {
		openOps[i] = fleetOpAt(z, i)
	}

	out := newOutcome()
	var st *fleetStack
	var setups []float64
	var puts []opRecord
	for rep := 0; rep < fleetSetupReps; rep++ {
		if st != nil {
			st.close()
		}
		// A traced run traces its last set-up, for the upload spans.
		rc.t.on.Store(rc.trace && rep == fleetSetupReps-1)
		t0 := time.Now()
		st, err = startFleet(rc, in)
		if err != nil {
			return nil, err
		}
		puts = puts[:0]
		for k := range in.base {
			res := st.put(rc, in, k)
			if res.err != nil {
				st.close()
				return nil, fmt.Errorf("upload: %w", res.err)
			}
			if res.mismatch {
				out.setupMismatches++
			}
			puts = append(puts, opRecord{opResult: res})
		}
		for k := range in.base {
			for c := 0; c < 2; c++ {
				res := st.read(rc, in, fleetOp{opRead, k, c})
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
	rc.t.on.Store(false)
	defer st.close()
	out.setupS = median(setups)

	callers := closedPickers(rc, fleetZipfS, fleetK)
	sv := &serving{rc: rc, rate: fleetRate, fc: st.fc, sc: st.sc,
		openOp: func(i int) opResult { return st.do(rc, in, openOps[i]) },
		closedOp: func(c, k int) opResult {
			return st.do(rc, in, fleetOpAt(callers[c], k))
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
	recs := sr.traced()
	ts := summarizeTrace(out.spans, recs, isRead)
	if err := ts.check(); err != nil {
		return nil, err
	}
	coord := sr.server[0]
	workers := merged(sr.server[1:]...)
	all := merged(sr.server...)
	wreqs := workers.sum("sketchsp_http_requests_total")
	creqs := coord.sum("sketchsp_shard_requests_total")
	L := out.layer
	L["service.backend_ms"] = ts.spanP50(layerWorkerBackend)
	L["service.queue_wait_s"] = ratio(workers.sum("sketchsp_service_queue_wait_seconds_sum"), wreqs)
	hits, misses := workers.sum("sketchsp_service_cache_hits_total"), workers.sum("sketchsp_service_cache_misses_total")
	L["service.plan_hit_ratio"] = ratio(hits, hits+misses)
	L["service.plan_builds"] = workers.sum("sketchsp_service_plan_builds_total")
	L["service.shed"] = workers.sum("sketchsp_service_shed_total")
	L["plan.execute_s"] = ratio(workers.sum("sketchsp_plan_execute_seconds_sum"), wreqs)
	sr.layerCommon(L, ts, coord, all)

	L["store.put_ms"] = summarizeTrace(out.spans, puts, func(opRecord) bool { return true }).spanP50(layerBackend)
	L["store.patch_ms"] = summarizeTrace(out.spans, recs, isWrite).spanP50(layerBackend)
	sh, sm := all.sum("sketchsp_store_hits_total"), all.sum("sketchsp_store_misses_total")
	L["store.hit_ratio"] = ratio(sh, sh+sm)
	rh, rm := workers.sum("sketchsp_ref_sketch_hits_total"), workers.sum("sketchsp_ref_sketch_misses_total")
	L["ref.sketch_hit_ratio"] = ratio(rh, rh+rm)
	L["write_p50_ms"] = percentile(sr.open.latencies(isWrite), 50)

	L["shard.coordinator_ms"] = ts.spanP50(layerBackend)
	L["shard.worker_ms"] = ts.spanP50(layerWorkerServer)
	L["shard.fanout_s"] = ratio(coord.sum("sketchsp_shard_fanout_seconds_sum"), creqs)
	L["shard.merge_s"] = ratio(coord.sum("sketchsp_shard_merge_seconds_sum"), creqs)
	L["shard.attempts_per_req"] = ratio(coord.sum("sketchsp_shard_subrequests_total"), creqs)
	L["shard.hedges"] = coord.sum("sketchsp_shard_hedges_total")
	L["shard.hedge_wins"] = coord.sum("sketchsp_shard_hedge_wins_total")
	L["shard.failovers"] = coord.sum("sketchsp_shard_failovers_total")
	L["shard.peer_bytes_per_req"] = ratio(coord.sum("sketchsp_shard_peer_bytes_total"), creqs)
	out.notes = append(out.notes, fmt.Sprintf("traced %d reads; %d orphan spans", ts.reqs, ts.orphans))
	return out, nil
}

// fleetStack is the fleet-byref program under test, plus the benchmark's
// view of which version of each matrix is current.
type fleetStack struct {
	workers []*loopServer
	coord   *loopServer
	peerTr  *http.Transport // the coordinator's connections to the workers
	fc      *frontClient
	sc      *scraper
	cur     [fleetK]atomic.Int32  // current version of matrix k
	next    [fleetK]atomic.Uint32 // next ΔA of matrix k
}

func startFleet(rc *runCtx, in *fleetInputs) (*fleetStack, error) {
	st := &fleetStack{}
	var peers []string
	for i := 0; i < fleetPeers; i++ {
		reg := obs.NewRegistry()
		svc := service.New(service.Config{Metrics: reg})
		ls, err := startServer(svc, reg, rc.t, layerWorkerServer, layerWorkerBackend)
		if err != nil {
			svc.Close()
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, ls)
		peers = append(peers, ls.URL)
	}
	reg := obs.NewRegistry()
	st.peerTr = http.DefaultTransport.(*http.Transport).Clone()
	peerRT := &roundTripper{base: st.peerTr, t: rc.t, layer: layerPeerRPC}
	coord, err := shard.New(shard.Config{
		Peers:         peers,
		Shards:        fleetShards,
		HedgeQuantile: fleetHedgeQ,
		Client:        client.Config{HTTPClient: &http.Client{Transport: peerRT}},
		Metrics:       reg,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	if st.coord, err = startServer(coord, reg, rc.t, layerServer, layerBackend); err != nil {
		coord.Close()
		st.close()
		return nil, err
	}
	st.fc = newFrontClient(st.coord.URL, rc.t, rc.workers)
	urls := []string{st.coord.URL}
	st.sc = newScraper(append(urls, peers...)...)
	return st, nil
}

func (st *fleetStack) close() {
	if st.fc != nil {
		st.fc.close()
		st.sc.close()
	}
	if st.coord != nil {
		st.coord.close()
	}
	if st.peerTr != nil {
		st.peerTr.CloseIdleConnections()
	}
	for _, w := range st.workers {
		w.close()
	}
}

func (st *fleetStack) do(rc *runCtx, in *fleetInputs, op fleetOp) opResult {
	if op.kind == opWrite {
		return st.write(rc, in, op.mat)
	}
	return st.read(rc, in, op)
}

func (st *fleetStack) put(rc *runCtx, in *fleetInputs, k int) opResult {
	var info store.Info
	res := timed(rc, "put", opResult{kind: opPut}, func(ctx context.Context) error {
		var err error
		info, err = st.fc.cli.PutMatrix(ctx, in.base[k])
		return err
	})
	res.mismatch = res.err == nil && info.Fp != in.fp[k][0]
	return res
}

func (st *fleetStack) read(rc *runCtx, in *fleetInputs, op fleetOp) opResult {
	v := st.cur[op.mat].Load()
	res := opResult{kind: opRead, sjlt: op.class == 1}
	if op.class == 0 {
		res.flops = in.flop[op.mat]
	}
	var ahat *dense.Matrix
	res = timed(rc, "read", res, func(ctx context.Context) error {
		var err error
		ahat, _, err = st.fc.cli.SketchRef(ctx, in.fp[op.mat][v], fleetD, in.opts[op.class])
		return err
	})
	res.mismatch = res.err == nil && !bitEqual(ahat, in.ref[op.mat][v][op.class])
	return res
}

// write patches matrix k's uploaded version with its next ΔA; once the
// coordinator confirms the expected fingerprint, reads of k move to it.
func (st *fleetStack) write(rc *runCtx, in *fleetInputs, k int) opResult {
	j := int(st.next[k].Add(1)-1) % fleetDeltas
	var info store.Info
	res := timed(rc, "write", opResult{kind: opWrite}, func(ctx context.Context) error {
		var err error
		info, err = st.fc.cli.PatchMatrix(ctx, in.fp[k][0], in.delta[k][j])
		return err
	})
	if res.err == nil {
		res.mismatch = info.Fp != in.fp[k][j+1]
		if !res.mismatch {
			st.cur[k].Store(int32(j + 1))
		}
	}
	return res
}
