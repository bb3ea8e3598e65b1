package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/shard"
	"sketchsp/internal/sparse"
)

// The -serve-shard-faults mode is the fault-tolerance companion to
// -serve-shard (BENCH_PR10.json): the same scaling curve re-run for
// regression tracking, then two experiments the PR6 suite could not
// express because the coordinator had no hedging and no dynamic
// membership:
//
//   - Straggler A/B: three workers, one started with -fault-delay so every
//     sketch on it arrives late. The same replay runs once with hedging off
//     and once with -hedge-quantile/-hedge-max-delay on, at equal request
//     counts. Without hedging nearly every request waits out the straggler
//     (a request dodges it only if none of its shards hash there); with
//     hedging the coordinator re-sends the laggard shard to the next ring
//     peer after the hedge delay and takes the first valid answer. The
//     record keeps both latency profiles, the hedge counters, and a
//     bit-identity check against the single-process plan — hedging must buy
//     tail latency without touching a single bit.
//
//   - Membership replay: a replay during which the third worker is
//     administratively removed and re-added mid-traffic. Zero requests may
//     fail — in-flight fan-outs complete against their membership snapshot
//     and new ones route around the change.
var (
	serveShardFaults    = flag.Bool("serve-shard-faults", false, "run the shard fault suite: scaling curve + straggler hedging A/B + membership-change replay (BENCH_PR10)")
	faultStragglerDelay = flag.Duration("fault-straggler-delay", 60*time.Millisecond, "with -serve-shard-faults: injected per-sketch delay on the straggler worker")
	faultHedgeQuantile  = flag.Float64("fault-hedge-quantile", 0.9, "with -serve-shard-faults: hedge quantile for the hedged arm")
	faultHedgeMaxDelay  = flag.Duration("fault-hedge-max-delay", 25*time.Millisecond, "with -serve-shard-faults: hedge delay cap for the hedged arm (also the cold-start delay)")
	faultRequests       = flag.Int("fault-requests", 120, "with -serve-shard-faults: requests per straggler arm and per membership replay")
)

// stragglerArm is one side of the hedging A/B.
type stragglerArm struct {
	Hedged       bool    `json:"hedged"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	WallMS       float64 `json:"wall_ms"`
	P50us        int64   `json:"e2e_p50_us"`
	P95us        int64   `json:"e2e_p95_us"`
	P99us        int64   `json:"e2e_p99_us"`
	Hedges       float64 `json:"hedges"`
	HedgeWins    float64 `json:"hedge_wins"`
	BitIdentical bool    `json:"bit_identical_vs_direct"`
}

// shardFaultsRecord is the JSON schema of a -serve-shard-faults run
// (BENCH_PR10.json).
type shardFaultsRecord struct {
	Mechanism        string            `json:"mechanism"`
	Host             string            `json:"host"`
	Shards           int               `json:"shards_per_request"`
	Scale            float64           `json:"scale"`
	D                int               `json:"d"`
	Clients          int               `json:"clients"`
	Curve            []shardCurvePoint `json:"curve"`
	CurveSpeedup     float64           `json:"curve_speedup_last_vs_1,omitempty"`
	StragglerDelayMS float64           `json:"straggler_delay_ms"`
	HedgeQuantile    float64           `json:"hedge_quantile"`
	HedgeMaxDelayMS  float64           `json:"hedge_max_delay_ms"`
	Unhedged         stragglerArm      `json:"unhedged"`
	Hedged           stragglerArm      `json:"hedged"`
	HedgedP99Ratio   float64           `json:"hedged_p99_over_unhedged_p99"`
	MembershipReqs   int64             `json:"membership_replay_requests"`
	MembershipFailed int64             `json:"membership_replay_failed"`
	PeerChanges      float64           `json:"membership_peer_changes"`
}

// coordCounters renders an in-process coordinator's registry and returns
// the flat sample map (counters and gauges, no buckets).
func coordCounters(coord *shard.Coordinator) map[string]float64 {
	var buf bytes.Buffer
	if err := coord.Registry().WriteText(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: registry:", err)
		return nil
	}
	mm, err := obs.ParseText(&buf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: registry parse:", err)
		return nil
	}
	return mm
}

// directReference computes the single-process Â for one workload.
func directReference(mix shardReplayMix, i int) (*dense.Matrix, error) {
	w := mix.wls[i]
	p, err := core.NewPlan(w.a, *shardD, mix.opts)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	ahat := dense.NewMatrix(*shardD, w.a.N)
	if _, err := p.Execute(ahat); err != nil {
		return nil, err
	}
	return ahat, nil
}

func matricesBitEqual(got, want *dense.Matrix) bool {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return false
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// stragglerMix is the replay for the hedging A/B: small matrices under the
// default algorithm, so per-request compute is a few milliseconds and the
// injected straggler delay is the tail. The plan-heavy -serve-shard mix
// would be wrong here twice over: its compute exceeds the straggler delay
// (so the delay is not the tail hedging should cut), and on a single-core
// host a hedge's duplicated plan build steals CPU from the request it is
// trying to rescue. Hedging pays when the backup has idle capacity and the
// laggard's latency is waiting, not work — which is exactly a straggling
// peer, and exactly this mix.
func stragglerMix() shardReplayMix {
	wls := make([]serveWorkload, 4)
	for i := range wls {
		wls[i] = serveWorkload{
			name:   fmt.Sprintf("straggler-%d", i),
			a:      sparse.RandomUniform(3000, 300, 0.01, *seed+int64(10+i)),
			weight: 1,
		}
	}
	return shardReplayMix{
		wls:  wls,
		opts: core.Options{Seed: uint64(*seed), Workers: 1, Sched: core.SchedWeighted},
		pick: func(r *rand.Rand) int { return r.Intn(len(wls)) },
	}
}

// runStragglerArm replays the mix through a fresh coordinator over the
// given (straggler-containing) worker fleet, hedged or not, and checks the
// merged sketches bit for bit against the direct plan.
func runStragglerArm(urls []string, mix shardReplayMix, refs []*dense.Matrix, hedged bool) stragglerArm {
	cfg := shard.Config{
		Peers:  urls,
		Shards: *shardsPerReq,
		Client: client.Config{MaxRetries: 20, BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond},
	}
	if hedged {
		cfg.HedgeQuantile = *faultHedgeQuantile
		cfg.HedgeMaxDelay = *faultHedgeMaxDelay
	}
	coord, err := shard.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	defer coord.Close()

	// Two warmup passes: the first fills the worker plan caches, the
	// second pushes every peer's latency window past the cold-start
	// minimum so the hedged arm hedges off measured quantiles, not the
	// cap, for most of the replay.
	ctx := context.Background()
	bitOK := true
	for pass := 0; pass < 3; pass++ {
		for i := range mix.wls {
			got, _, err := coord.Sketch(ctx, mix.wls[i].a, *shardD, mix.opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, "spmmbench: straggler warmup:", err)
				os.Exit(1)
			}
			if pass == 0 && !matricesBitEqual(got, refs[i]) {
				bitOK = false
			}
		}
	}

	// Sequential replay: on this single-core host concurrent clients add
	// queueing noise that swamps the latency windows the hedge delay is
	// derived from (every RPC looks like a laggard and hedges storm). One
	// client keeps the per-RPC latency distribution stationary, so the
	// A/B isolates the straggler — the thing hedging is for.
	all, wall, nfailed := replayThroughCoordinator(coord, mix, *faultRequests, 1)
	mm := coordCounters(coord)
	arm := stragglerArm{
		Hedged:       hedged,
		Requests:     int64(len(all)),
		Errors:       nfailed,
		WallMS:       float64(wall.Microseconds()) / 1000,
		P50us:        quantileExact(all, 0.50).Microseconds(),
		P95us:        quantileExact(all, 0.95).Microseconds(),
		P99us:        quantileExact(all, 0.99).Microseconds(),
		Hedges:       mm["sketchsp_shard_hedges_total"],
		HedgeWins:    mm["sketchsp_shard_hedge_wins_total"],
		BitIdentical: bitOK,
	}
	mode := "unhedged"
	if hedged {
		mode = "hedged  "
	}
	fmt.Printf("  %s: %4d req   wall %8v   p50 %8v   p95 %8v   p99 %8v   hedges %4.0f (won %4.0f)   errors %d   bit-identical %v\n",
		mode, arm.Requests, wall.Round(time.Millisecond),
		quantileExact(all, 0.50), quantileExact(all, 0.95), quantileExact(all, 0.99),
		arm.Hedges, arm.HedgeWins, arm.Errors, arm.BitIdentical)
	return arm
}

// runMembershipReplay replays the mix through a 3-worker coordinator while
// the third worker is removed and re-added mid-traffic via the PeerAdmin
// surface — the same code path POST/DELETE /v1/peers drives on a daemon.
func runMembershipReplay(urls []string, mix shardReplayMix) (reqs, nfailed int64, peerChanges float64) {
	coord, err := shard.New(shard.Config{
		Peers:  urls,
		Shards: *shardsPerReq,
		Client: client.Config{MaxRetries: 20, BaseBackoff: time.Millisecond, MaxBackoff: 50 * time.Millisecond},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	defer coord.Close()
	ctx := context.Background()
	for _, w := range mix.wls {
		if _, _, err := coord.Sketch(ctx, w.a, *shardD, mix.opts); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench: membership warmup:", err)
			os.Exit(1)
		}
	}

	type result struct {
		lats    int
		nfailed int64
	}
	done := make(chan result, 1)
	go func() {
		all, _, f := replayThroughCoordinator(coord, mix, *faultRequests, *clients)
		done <- result{len(all), f}
	}()

	// Drive the membership change off the live request counter so both
	// changes genuinely land mid-replay regardless of host speed.
	third := urls[len(urls)-1]
	waitReq := func(n float64) bool {
		deadline := time.Now().Add(2 * time.Minute)
		for coordCounters(coord)["sketchsp_shard_requests_total"] < n {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
		return true
	}
	if waitReq(float64(*faultRequests) / 3) {
		if err := coord.RemovePeer(third); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench: remove peer:", err)
		}
	}
	if waitReq(2 * float64(*faultRequests) / 3) {
		if err := coord.AddPeer(third); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench: add peer:", err)
		}
	}
	r := <-done
	changes := coordCounters(coord)["sketchsp_shard_peer_changes_total"]
	fmt.Printf("  membership replay: %d requests, %d failed, %0.f peer changes (remove + re-add of %s mid-replay)\n",
		r.lats+int(r.nfailed), r.nfailed, changes, third)
	return int64(r.lats) + r.nfailed, r.nfailed, changes
}

func serveShardFaultsSuite() {
	shardSuiteDefaults()
	mix := newShardReplayMix()

	bin, cleanupBin, err := buildSketchdBin()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	defer cleanupBin()

	fmt.Printf("\nSERVE-SHARD-FAULTS SUITE — %d requests/arm, %d clients, %d shards/request, straggler delay %v, hedge q=%.2f cap=%v, GOMAXPROCS=%d\n",
		*faultRequests, *clients, *shardsPerReq, *faultStragglerDelay,
		*faultHedgeQuantile, *faultHedgeMaxDelay, runtime.GOMAXPROCS(0))

	// Phase 1: the PR6 scaling curve, re-run for regression tracking.
	fmt.Printf(" scaling curve (%d requests/point):\n", *requests)
	curve := runShardCurve(bin, mix, parseWorkerCounts(), shard.Config{})
	printSpeedups(curve)
	curveSpeedup := curve[len(curve)-1].Speedup

	// Phase 2: straggler A/B on a fixed 3-worker fleet whose third member
	// delays every sketch.
	fmt.Printf(" straggler A/B:\n")
	var urls []string
	var stops []func()
	for i := 0; i < 3; i++ {
		extra := []string{}
		if i == 2 {
			extra = []string{"-fault-delay", faultStragglerDelay.String()}
		}
		url, stop, err := startShardWorker(bin, *shardWorkerCache, extra...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			os.Exit(1)
		}
		urls = append(urls, url)
		stops = append(stops, stop)
	}
	smix := stragglerMix()
	refs := make([]*dense.Matrix, len(smix.wls))
	for i := range smix.wls {
		if refs[i], err = directReference(smix, i); err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench: direct reference:", err)
			os.Exit(1)
		}
	}
	unhedged := runStragglerArm(urls, smix, refs, false)
	hedged := runStragglerArm(urls, smix, refs, true)
	for _, stop := range stops {
		stop()
	}
	ratio := 0.0
	if unhedged.P99us > 0 {
		ratio = float64(hedged.P99us) / float64(unhedged.P99us)
	}
	fmt.Printf("  hedged p99 / unhedged p99 = %.3f\n", ratio)

	// Phase 3: membership change mid-replay on a healthy 3-worker fleet.
	fmt.Printf(" membership replay:\n")
	urls, stops = nil, nil
	for i := 0; i < 3; i++ {
		url, stop, err := startShardWorker(bin, *shardWorkerCache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spmmbench:", err)
			os.Exit(1)
		}
		urls = append(urls, url)
		stops = append(stops, stop)
	}
	mReqs, mFailed, mChanges := runMembershipReplay(urls, mix)
	for _, stop := range stops {
		stop()
	}

	if *jsonOut != "" {
		rec := shardFaultsRecord{
			Mechanism: "tail-at-scale hedging + dynamic membership on the PR6 shard fleet: the straggler A/B holds " +
				"request count and bits constant and varies only the hedge policy, so the p99 gap is pure hedging; " +
				"the membership replay removes and re-adds a live worker mid-traffic and must lose zero requests",
			Host:             fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
			Shards:           *shardsPerReq,
			Scale:            *scale,
			D:                *shardD,
			Clients:          *clients,
			Curve:            curve,
			CurveSpeedup:     curveSpeedup,
			StragglerDelayMS: float64(faultStragglerDelay.Microseconds()) / 1000,
			HedgeQuantile:    *faultHedgeQuantile,
			HedgeMaxDelayMS:  float64(faultHedgeMaxDelay.Microseconds()) / 1000,
			Unhedged:         unhedged,
			Hedged:           hedged,
			HedgedP99Ratio:   ratio,
			MembershipReqs:   mReqs,
			MembershipFailed: mFailed,
			PeerChanges:      mChanges,
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
