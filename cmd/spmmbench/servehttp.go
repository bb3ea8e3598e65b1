package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/obs"
	"sketchsp/internal/server"
	"sketchsp/internal/service"
)

// The -serve-http mode replays the same skew-popularity workload as -serve,
// but over a real loopback HTTP server speaking the wire codec: each client
// goroutine encodes its CSC input, POSTs it to 127.0.0.1, and decodes the
// sketch back. Reported next to the server-side (in-process) latency
// histogram, the client-side end-to-end quantiles isolate what the network
// layer costs — codec, HTTP framing, loopback TCP — and the /metrics byte
// counters give the wire traffic per request, which stays O(nnz(A) + d·n)
// because S never crosses the network.

var serveHTTP = flag.Bool("serve-http", false, "replay the -serve workload over a loopback HTTP server (wire codec end to end)")

// -scrape folds the server's /metrics exposition into the JSON record, so a
// bench run documents the full counter state (shed, cache traffic, stage
// latencies) alongside the latency summary — and doubles as an end-to-end
// check that the exposition parses.
var scrape = flag.Bool("scrape", false, "with -serve-http: scrape /metrics after the replay and fold the series into the JSON record")

// serveHTTPRecord is the JSON schema of a -serve-http run (BENCH_PR4.json).
type serveHTTPRecord struct {
	Clients        int     `json:"clients"`
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	CacheCap       int     `json:"cache_capacity"`
	Matrices       int     `json:"matrices"`
	HitRate        float64 `json:"hit_rate"`
	WallMS         float64 `json:"wall_ms"`
	ThroughputS    float64 `json:"requests_per_s"`
	E2EP50us       int64   `json:"e2e_p50_us"`
	E2EP95us       int64   `json:"e2e_p95_us"`
	E2EP99us       int64   `json:"e2e_p99_us"`
	E2EMeanUS      int64   `json:"e2e_mean_us"`
	InprocP50us    int64   `json:"inproc_p50_us"`
	InprocP95us    int64   `json:"inproc_p95_us"`
	InprocP99us    int64   `json:"inproc_p99_us"`
	InprocMeanUS   int64   `json:"inproc_mean_us"`
	WireOverheadUS int64   `json:"wire_overhead_mean_us"`
	BytesInPerReq  int64   `json:"bytes_in_per_request"`
	BytesOutPerReq int64   `json:"bytes_out_per_request"`
	// Metrics holds the scraped /metrics series (-scrape only): every
	// sketchsp_* sample except the histogram buckets, keyed exactly as
	// exposed (counters, gauges, histogram _sum/_count).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// scrapeMetrics pulls /metrics and keeps the non-bucket sketchsp_* series.
func scrapeMetrics(base string) map[string]float64 {
	res, err := http.Get(base + "/metrics")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: scrape:", err)
		return nil
	}
	defer res.Body.Close()
	mm, err := obs.ParseText(res.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: scrape parse:", err)
		return nil
	}
	out := make(map[string]float64)
	for k, v := range mm {
		if strings.HasPrefix(k, "sketchsp_") && !strings.Contains(k, "_bucket{") {
			out[k] = v
		}
	}
	return out
}

// transportCounters are the server's sketchsp_http_* request and byte
// counters, read from /metrics.
type transportCounters struct{ requests, bytesIn, bytesOut int64 }

func scrapeTransport(base string) transportCounters {
	m := scrapeMetrics(base)
	return transportCounters{
		requests: int64(m["sketchsp_http_requests_total"]),
		bytesIn:  int64(m["sketchsp_http_request_bytes_total"]),
		bytesOut: int64(m["sketchsp_http_response_bytes_total"]),
	}
}

// quantileExact returns the q-quantile of sorted durations.
func quantileExact(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func serveHTTPSuite() {
	wls := serveWorkloads()
	svc := service.New(service.Config{
		Capacity:    *cacheCap,
		MaxInFlight: *inFlight,
	})
	defer svc.Close()
	srv := server.New(svc, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench:", err)
		os.Exit(1)
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "spmmbench: serve:", err)
		}
	}()
	base := "http://" + l.Addr().String()

	// Same cumulative popularity table as -serve.
	cum := make([]float64, len(wls))
	total := 0.0
	for i, w := range wls {
		total += w.weight
		cum[i] = total
	}
	pick := func(r *rand.Rand) int {
		x := r.Float64() * total
		for i, c := range cum {
			if x < c {
				return i
			}
		}
		return len(wls) - 1
	}

	var issued, failed atomic.Int64
	budget := int64(*requests)
	lats := make([][]time.Duration, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Generous retries: overload shed is the server's job; the
			// replay should measure it as latency, not as errors.
			cl := client.New(base, client.Config{
				MaxRetries:  20,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
			})
			r := rand.New(rand.NewSource(int64(*seed)*1000 + int64(c)))
			ctx := context.Background()
			for issued.Add(1) <= budget {
				w := wls[pick(r)]
				t0 := time.Now()
				if _, _, err := cl.Sketch(ctx, w.a, w.d, w.opts); err != nil {
					failed.Add(1)
					continue
				}
				lats[c] = append(lats[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	st := svc.Stats()
	tc := scrapeTransport(base)
	lookups := st.Hits + st.Misses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(st.Hits) / float64(lookups)
	}

	var all []time.Duration
	for _, ls := range lats {
		all = append(all, ls...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	var e2eMean time.Duration
	if len(all) > 0 {
		var sum time.Duration
		for _, d := range all {
			sum += d
		}
		e2eMean = sum / time.Duration(len(all))
	}
	e2eP50 := quantileExact(all, 0.50)
	e2eP95 := quantileExact(all, 0.95)
	e2eP99 := quantileExact(all, 0.99)

	var bytesInPerReq, bytesOutPerReq int64
	if tc.requests > 0 {
		bytesInPerReq = tc.bytesIn / tc.requests
		bytesOutPerReq = tc.bytesOut / tc.requests
	}

	fmt.Printf("\nSERVE-HTTP SUITE — %d requests over loopback HTTP, %d clients, cache %d/%d matrices, GOMAXPROCS=%d\n",
		st.Requests, *clients, *cacheCap, len(wls), runtime.GOMAXPROCS(0))
	fmt.Printf("  wall %v  (%.0f req/s)   hit rate %.1f%%   errors %d   rejections %d (absorbed by retry)\n",
		wall.Round(time.Millisecond), float64(st.Requests)/wall.Seconds(),
		100*hitRate, failed.Load(), st.Rejections)
	fmt.Printf("  e2e latency      mean %v   p50 %v   p95 %v   p99 %v\n",
		e2eMean, e2eP50, e2eP95, e2eP99)
	fmt.Printf("  in-process       mean %v   p50 %v   p95 %v   p99 %v\n",
		st.LatencyMean, st.LatencyP50, st.LatencyP95, st.LatencyP99)
	fmt.Printf("  wire overhead    mean %v (e2e - in-process: codec + HTTP + loopback TCP)\n",
		e2eMean-st.LatencyMean)
	fmt.Printf("  traffic          %d B/request in, %d B/request out (S never crosses the wire)\n",
		bytesInPerReq, bytesOutPerReq)

	var scraped map[string]float64
	if *scrape {
		scraped = scrapeMetrics(base)
		fmt.Printf("  metrics          %d series scraped from /metrics (shed %v, plan executes %v)\n",
			len(scraped), scraped["sketchsp_service_shed_total"], scraped["sketchsp_plan_executes_total"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "spmmbench: shutdown:", err)
	}
	cancel()
	<-serveDone

	if *jsonOut != "" {
		rec := serveHTTPRecord{
			Clients:        *clients,
			Requests:       st.Requests,
			Errors:         failed.Load(),
			CacheCap:       *cacheCap,
			Matrices:       len(wls),
			HitRate:        hitRate,
			WallMS:         float64(wall.Microseconds()) / 1000,
			ThroughputS:    float64(st.Requests) / wall.Seconds(),
			E2EP50us:       e2eP50.Microseconds(),
			E2EP95us:       e2eP95.Microseconds(),
			E2EP99us:       e2eP99.Microseconds(),
			E2EMeanUS:      e2eMean.Microseconds(),
			InprocP50us:    st.LatencyP50.Microseconds(),
			InprocP95us:    st.LatencyP95.Microseconds(),
			InprocP99us:    st.LatencyP99.Microseconds(),
			InprocMeanUS:   st.LatencyMean.Microseconds(),
			WireOverheadUS: (e2eMean - st.LatencyMean).Microseconds(),
			BytesInPerReq:  bytesInPerReq,
			BytesOutPerReq: bytesOutPerReq,
			Metrics:        scraped,
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
