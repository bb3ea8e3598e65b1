package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/shard"
)

// The -serve-shard mode measures what the coordinator/worker split buys on
// the BENCH_PR4 replay mix: the same six Zipf-weighted matrices, replayed
// through an in-process coordinator fanning nnz-balanced column shards out
// to 1, 2 and 4 sketchd *worker processes* on loopback.
//
// What scales on this host — and what cannot: on a multi-core cluster the
// split buys compute parallelism; on this single-core benchmark host it
// cannot (the workers time-share one CPU), so the curve isolates the other
// — and in cache-bound serving regimes dominant — axis: aggregate
// plan-cache capacity. The request profile is deliberately plan-build-heavy
// (small d, tiny BlockN, Algorithm 4, so the CSC→BlockedCSR conversion at
// plan time dominates the cheap execute), the shard count is fixed across
// worker counts (so the shard fingerprints, and hence the plan-cache keys,
// are identical in every configuration), and each worker's cache is sized
// well below the full shard-plan working set. One worker must hold every
// shard of every matrix and thrashes; four workers hold a quarter each —
// consistent-hash routing pins each shard to one worker — and serve from
// cache. The JSON record names this mechanism explicitly so nobody reads
// the curve as single-core compute scaling.

var (
	serveShard       = flag.Bool("serve-shard", false, "replay the -serve workload through a shard coordinator over 1/2/4 loopback sketchd worker processes")
	shardCounts      = flag.String("shard-workers", "1,2,4", "with -serve-shard: comma-separated worker counts to sweep")
	shardsPerReq     = flag.Int("shards", 4, "with -serve-shard: column shards per request (fixed across worker counts so plan keys stay identical)")
	shardWorkerCache = flag.Int("shard-cache", 10, "with -serve-shard: per-worker plan cache capacity (below the full shard working set)")
	shardD           = flag.Int("shard-d", 16, "with -serve-shard: sketch rows d (small keeps execute cheap relative to plan build)")
)

// shardCurvePoint is one worker-count measurement of the scaling curve.
type shardCurvePoint struct {
	Workers     int     `json:"workers"`
	Requests    int64   `json:"requests"`
	Errors      int64   `json:"errors"`
	WallMS      float64 `json:"wall_ms"`
	ThroughputS float64 `json:"requests_per_s"`
	E2EP50us    int64   `json:"e2e_p50_us"`
	E2EP95us    int64   `json:"e2e_p95_us"`
	HitRate     float64 `json:"worker_cache_hit_rate"`
	PlanBuilds  float64 `json:"worker_plan_builds"`
	Speedup     float64 `json:"speedup_vs_1_worker,omitempty"` // set only when the sweep measured 1 worker
}

// serveShardRecord is the JSON schema of a -serve-shard run (BENCH_PR6.json).
type serveShardRecord struct {
	Mechanism     string            `json:"mechanism"`
	Host          string            `json:"host"`
	Shards        int               `json:"shards_per_request"`
	Scale         float64           `json:"scale"`
	WorkerCache   int               `json:"per_worker_cache_capacity"`
	ShardPlanKeys int               `json:"shard_plan_keys_total"`
	D             int               `json:"d"`
	Clients       int               `json:"clients"`
	Matrices      int               `json:"matrices"`
	Curve         []shardCurvePoint `json:"curve"`
	Speedup4v1    float64           `json:"speedup_4_workers_vs_1,omitempty"`
}

// buildSketchdBin compiles the daemon into a temp dir for the subprocess
// workers.
func buildSketchdBin() (string, func(), error) {
	dir, err := os.MkdirTemp("", "spmmbench-sketchd")
	if err != nil {
		return "", nil, err
	}
	bin := filepath.Join(dir, "sketchd")
	cmd := exec.Command("go", "build", "-o", bin, "sketchsp/cmd/sketchd")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("go build sketchd: %v\n%s", err, out)
	}
	return bin, func() { os.RemoveAll(dir) }, nil
}

// startShardWorker launches one sketchd worker and returns its URL and a
// stop function (SIGTERM, bounded wait). Extra flags (e.g. -fault-delay
// for the straggler A/B) are appended verbatim.
func startShardWorker(bin string, cache int, extra ...string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "spmmbench-worker")
	if err != nil {
		return "", nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	// The generous queue keeps admission control out of the measurement:
	// with the default tiny queue a single worker sheds most of the fan-in
	// and the curve would conflate retry storms with cache behaviour.
	args := append([]string{
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-cache", fmt.Sprint(cache),
		"-max-queue", "64"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
		os.RemoveAll(dir)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			return "http://" + strings.TrimSpace(string(b)), stop, nil
		}
		if time.Now().After(deadline) {
			stop()
			return "", nil, fmt.Errorf("worker never published %s", addrFile)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// shardSuiteDefaults applies the shard suites' flag defaults. The replay
// mix shares -scale with -serve, but the shard suites default larger:
// plan-build cost grows as m·n while the fixed per-request cost (wire
// transfer, decode, execute) grows as nnz, so the bigger default keeps the
// cache-miss penalty — the thing the worker count amortises — comfortably
// above the transport floor. An explicit -scale still wins. -clients
// defaults lower too: enough concurrency to keep the single CPU fed, few
// enough that the one-worker point measures cache thrash rather than
// fan-in queueing.
func shardSuiteDefaults() {
	scaleSet, clientsSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scale":
			scaleSet = true
		case "clients":
			clientsSet = true
		}
	})
	if !scaleSet {
		*scale = 0.12
	}
	if !clientsSet {
		*clients = 4
	}
}

// shardReplayMix is the Zipf-weighted replay shared by -serve-shard and
// -serve-shard-faults: the -serve matrices under a plan-build-heavy option
// set (Algorithm 4 with a tiny BlockN maximises per-plan conversion work,
// the small fixed -shard-d keeps the execute cheap — so a cache miss costs
// a multiple of a hit).
type shardReplayMix struct {
	wls  []serveWorkload
	opts core.Options
	pick func(r *rand.Rand) int
}

func newShardReplayMix() shardReplayMix {
	wls := serveWorkloads()
	cum := make([]float64, len(wls))
	total := 0.0
	for i, w := range wls {
		total += w.weight
		cum[i] = total
	}
	return shardReplayMix{
		wls: wls,
		opts: core.Options{
			Algorithm: core.Alg4, Seed: uint64(*seed),
			BlockN: 1, Workers: 1, Sched: core.SchedWeighted,
		},
		pick: func(r *rand.Rand) int {
			x := r.Float64() * total
			for i, c := range cum {
				if x < c {
					return i
				}
			}
			return len(wls) - 1
		},
	}
}

// replayThroughCoordinator replays nRequests draws of the mix through an
// existing coordinator with nClients goroutines and returns the sorted
// per-request latencies, the wall time, and the failure count.
func replayThroughCoordinator(coord *shard.Coordinator, mix shardReplayMix, nRequests, nClients int) ([]time.Duration, time.Duration, int64) {
	ctx := context.Background()
	var issued, failed atomic.Int64
	budget := int64(nRequests)
	lats := make([][]time.Duration, nClients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(*seed)*1000 + int64(c)))
			for issued.Add(1) <= budget {
				w := mix.wls[mix.pick(r)]
				t0 := time.Now()
				if _, _, err := coord.Sketch(ctx, w.a, *shardD, mix.opts); err != nil {
					failed.Add(1)
					continue
				}
				lats[c] = append(lats[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
	}
	sortDurations(all)
	return all, wall, failed.Load()
}

// runShardCurve measures one scaling curve: for each worker count, start
// that many sketchd processes, replay the mix through a fresh coordinator,
// and record throughput/latency plus fleet-wide cache traffic.
func runShardCurve(bin string, mix shardReplayMix, counts []int, shardCfg shard.Config) []shardCurvePoint {
	var curve []shardCurvePoint
	for _, nw := range counts {
		urls := make([]string, nw)
		stops := make([]func(), nw)
		for i := 0; i < nw; i++ {
			url, stop, err := startShardWorker(bin, *shardWorkerCache)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spmmbench:", err)
				os.Exit(1)
			}
			urls[i] = url
			stops[i] = stop
		}
		cfg := shardCfg
		cfg.Peers = urls
		cfg.Shards = *shardsPerReq
		cfg.Client = client.Config{MaxRetries: 20, BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond}
		coord, err := shard.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			os.Exit(1)
		}

		// Warmup pass: touch every matrix once so every configuration
		// starts with whatever fits resident — the steady state a serving
		// deployment lives in, and the regime the capacity argument is
		// about.
		ctx := context.Background()
		for _, w := range mix.wls {
			if _, _, err := coord.Sketch(ctx, w.a, *shardD, mix.opts); err != nil {
				fmt.Fprintln(os.Stderr, "spmmbench: warmup:", err)
				os.Exit(1)
			}
		}

		all, wall, nfailed := replayThroughCoordinator(coord, mix, *requests, *clients)

		// Worker-side cache traffic, summed over the fleet.
		var hits, misses, builds float64
		for _, u := range urls {
			mm := scrapeMetrics(u)
			hits += mm["sketchsp_service_cache_hits_total"]
			misses += mm["sketchsp_service_cache_misses_total"]
			builds += mm["sketchsp_service_plan_builds_total"]
		}
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = hits / (hits + misses)
		}

		done := int64(len(all))
		pt := shardCurvePoint{
			Workers:     nw,
			Requests:    done,
			Errors:      nfailed,
			WallMS:      float64(wall.Microseconds()) / 1000,
			ThroughputS: float64(done) / wall.Seconds(),
			E2EP50us:    quantileExact(all, 0.50).Microseconds(),
			E2EP95us:    quantileExact(all, 0.95).Microseconds(),
			HitRate:     hitRate,
			PlanBuilds:  builds,
		}
		curve = append(curve, pt)
		fmt.Printf("  %d worker(s): %6.0f req/s   wall %8v   p50 %8v   p95 %8v   hit rate %5.1f%%   plan builds %5.0f\n",
			nw, pt.ThroughputS, wall.Round(time.Millisecond),
			quantileExact(all, 0.50), quantileExact(all, 0.95),
			100*hitRate, builds)

		coord.Close()
		for _, stop := range stops {
			stop()
		}
	}
	return curve
}

func parseWorkerCounts() []int {
	var counts []int
	for _, s := range strings.Split(*shardCounts, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "spmmbench: bad -shard-workers entry %q\n", s)
			os.Exit(1)
		}
		counts = append(counts, n)
	}
	return counts
}

func serveShardSuite() {
	shardSuiteDefaults()
	mix := newShardReplayMix()

	bin, cleanupBin, err := buildSketchdBin()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	defer cleanupBin()

	counts := parseWorkerCounts()

	fmt.Printf("\nSERVE-SHARD SUITE — %d requests/point, %d clients, %d shards/request, per-worker cache %d, %d shard-plan keys, GOMAXPROCS=%d\n",
		*requests, *clients, *shardsPerReq, *shardWorkerCache, *shardsPerReq*len(mix.wls), runtime.GOMAXPROCS(0))
	fmt.Printf("  (single-core host: the curve measures aggregate plan-cache capacity + shard routing affinity, not compute parallelism)\n")

	curve := runShardCurve(bin, mix, counts, shard.Config{})
	printSpeedups(curve)
	var speedup4v1 float64
	for _, pt := range curve {
		if pt.Workers == 4 {
			speedup4v1 = pt.Speedup
		}
	}

	if *jsonOut != "" {
		rec := serveShardRecord{
			Mechanism: "aggregate plan-cache capacity + consistent-hash shard affinity on a single-core host " +
				"(fixed shard count keeps plan keys identical across worker counts; one worker thrashes its cache, " +
				"four workers hold the working set; NOT compute parallelism)",
			Host:          fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
			Shards:        *shardsPerReq,
			Scale:         *scale,
			WorkerCache:   *shardWorkerCache,
			ShardPlanKeys: *shardsPerReq * len(mix.wls),
			D:             *shardD,
			Clients:       *clients,
			Matrices:      len(mix.wls),
			Curve:         curve,
			Speedup4v1:    speedup4v1,
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			return
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			return
		}
		fmt.Printf("(wrote %s)\n", *jsonOut)
	}
}

// printSpeedups fills each curve point's Speedup as its throughput over
// the 1-worker point's and prints them. A sweep without a 1-worker point
// has no baseline: nothing is filled and the summary says so.
func printSpeedups(curve []shardCurvePoint) {
	var base float64
	for _, pt := range curve {
		if pt.Workers == 1 {
			base = pt.ThroughputS
		}
	}
	if base <= 0 {
		fmt.Printf("  speedup vs 1 worker: not measured (the sweep has no 1-worker point)\n")
		return
	}
	fmt.Printf("  speedup vs 1 worker:")
	for i := range curve {
		curve[i].Speedup = curve[i].ThroughputS / base
		fmt.Printf("  %dw %.2fx", curve[i].Workers, curve[i].Speedup)
	}
	fmt.Println()
}

func sortDurations(ds []time.Duration) {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
}
