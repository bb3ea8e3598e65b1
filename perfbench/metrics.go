package main

import (
	"fmt"
	"math"
	"time"
)

// metricDef is one reported metric. The lists below are the benchmark's
// contract with BENCHMARK.json (TestMetricsMatchBenchmarkJSON keeps them
// equal): --trace 0 prints every end-to-end metric, --trace 1 every
// per-layer metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"sketch_gflops", "GFlop/s"},
	{"sjlt_sketches_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer metrics of a layer that a workload does not run are reported
// as 0; README.md lists which layer each workload exercises.
var perLayer = []metricDef{
	{"rng.fill_ns_per_sample", "ns"},
	{"host.stream_triad_gbs", "GB/s"},
	{"core.execute_ms.uniform", "ms"},
	{"core.execute_ms.powerlaw", "ms"},
	{"core.execute_ms.sjlt", "ms"},
	{"core.ns_per_sample", "ns"},
	{"core.accumulate_ns_per_sample", "ns"},
	{"core.gflops_over_rng_bound", "ratio"},
	{"core.imbalance", "ratio"},
	{"core.steals", "count"},
	{"core.plan_build_ms", "ms"},
	{"service.backend_ms", "ms"},
	{"service.queue_wait_s", "s"},
	{"service.plan_hit_ratio", "ratio"},
	{"service.plan_builds", "count"},
	{"service.shed", "count"},
	{"plan.execute_s", "s"},
	{"http.self_ms", "ms"},
	{"http.decode_s", "s"},
	{"http.encode_s", "s"},
	{"http.bytes_in_per_req", "B"},
	{"http.bytes_out_per_req", "B"},
	{"client.retries", "count"},
	{"store.put_ms", "ms"},
	{"store.patch_ms", "ms"},
	{"store.hit_ratio", "ratio"},
	{"ref.sketch_hit_ratio", "ratio"},
	{"write_p50_ms", "ms"},
	{"shard.coordinator_ms", "ms"},
	{"shard.worker_ms", "ms"},
	{"shard.fanout_s", "s"},
	{"shard.merge_s", "s"},
	{"shard.attempts_per_req", "ratio"},
	{"shard.hedges", "count"},
	{"shard.hedge_wins", "count"},
	{"shard.failovers", "count"},
	{"shard.peer_bytes_per_req", "B"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead", "ratio"},
	{"trace.self_sum_gap", "ratio"},
	{"self.client_ms", "ms"},
	{"self.client_rpc_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.backend_ms", "ms"},
	{"self.peer_rpc_ms", "ms"},
	{"self.worker_server_ms", "ms"},
	{"self.worker_backend_ms", "ms"},
	{"self.kernel_ms", "ms"},
	{"error_rate", "ratio"},
}

// selfSumTolerance is the traced run's consistency check: for 99% of
// traced requests the per-layer self times must sum to the client-observed
// call time within this share of it.
const selfSumTolerance = 0.02

// traceStats summarises a traced phase's spans for the requests kept.
type traceStats struct {
	reqs    int
	orphans int
	selfMS  map[string]float64 // mean self time per request along the blocking path
	gapP99  float64            // p99 over requests of |Σ self − call| / call
	trees   map[uint64]*reqTree
	kept    []opRecord
}

func summarizeTrace(spans []span, recs []opRecord, keep func(opRecord) bool) traceStats {
	trees, orphans := groupRequests(spans)
	ts := traceStats{orphans: orphans, selfMS: map[string]float64{}, trees: trees}
	var gaps []float64
	sum := map[string]int64{}
	for _, r := range recs {
		t := trees[r.req]
		if !keep(r) || r.failed() || t == nil {
			continue
		}
		ts.kept = append(ts.kept, r)
		per := map[string]int64{}
		t.attribute(per)
		var total int64
		for k, v := range per {
			sum[k] += v
			total += v
		}
		gaps = append(gaps, math.Abs(float64(total)-float64(r.call))/float64(r.call))
		ts.reqs++
	}
	for k, v := range sum {
		ts.selfMS[k] = float64(v) / 1e6 / float64(ts.reqs)
	}
	ts.gapP99 = percentile(sortedCopy(gaps), 99)
	return ts
}

// spanP50 is the median duration in ms of every span named layer in the
// kept requests.
func (ts traceStats) spanP50(layer string) float64 {
	var xs []float64
	for _, r := range ts.kept {
		for _, ks := range ts.trees[r.req].kids {
			for _, s := range ks {
				if s.Name == layer {
					xs = append(xs, ms(time.Duration(s.End-s.Start)))
				}
			}
		}
	}
	return percentile(sortedCopy(xs), 50)
}

// rootMinusP50 is the median over kept requests of the root span minus the
// first span named layer: the time outside that layer.
func (ts traceStats) rootMinusP50(layer string) float64 {
	var xs []float64
	for _, r := range ts.kept {
		t := ts.trees[r.req]
		if s := t.first(layer); s != nil {
			xs = append(xs, ms(time.Duration((t.root.End-t.root.Start)-(s.End-s.Start))))
		}
	}
	return percentile(sortedCopy(xs), 50)
}

// setSelf copies the per-layer self times into the metric map.
func (ts traceStats) setSelf(m map[string]float64) {
	for _, l := range []string{layerClient, layerClientRPC, layerServer, layerBackend,
		layerPeerRPC, layerWorkerServer, layerWorkerBackend, layerKernel} {
		m["self."+l+"_ms"] = ts.selfMS[l]
	}
	m["trace.self_sum_gap"] = ts.gapP99
}

// check is the traced run's gate: some requests were traced and their
// per-layer self times add up to the client-observed time.
func (ts traceStats) check() error {
	if ts.reqs == 0 {
		return fmt.Errorf("trace: no traced request completed")
	}
	if ts.gapP99 > selfSumTolerance {
		return fmt.Errorf("trace: per-layer self times miss the client-observed time by %.1f%% at p99 (tolerance %.0f%%)",
			100*ts.gapP99, 100*selfSumTolerance)
	}
	return nil
}
