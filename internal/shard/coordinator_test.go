package shard

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/server"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// worker is one in-process sketchd: a real service behind the real HTTP
// handler, so the coordinator tests exercise the full wire round trip.
type worker struct {
	svc *service.Service
	srv *httptest.Server
}

func (w *worker) stop() {
	w.srv.Close()
	w.svc.Close()
}

// startWorkers brings up n full-stack workers, optionally wrapping each
// handler (wrap may be nil). Cleanup is registered on t.
func startWorkers(t *testing.T, n int, wrap func(i int, h http.Handler) http.Handler) ([]*worker, []string) {
	t.Helper()
	workers := make([]*worker, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Capacity: 8, MaxInFlight: 4})
		h := http.Handler(server.New(svc, server.Config{}).Handler())
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		workers[i] = &worker{svc: svc, srv: srv}
		urls[i] = srv.URL
		t.Cleanup(workers[i].stop)
	}
	return workers, urls
}

// directSketch is the single-process reference the merged sketch must
// match bit for bit.
func directSketch(t *testing.T, a *sparse.CSC, d int, opts core.Options) *dense.Matrix {
	t.Helper()
	p, err := core.NewPlan(a, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ahat := dense.NewMatrix(d, a.N)
	if _, err := p.Execute(ahat); err != nil {
		t.Fatal(err)
	}
	return ahat
}

func assertBitIdentical(t *testing.T, got, want *dense.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("merged sketch is %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j))
			if g != w {
				t.Fatalf("Â[%d,%d] = %x, want %x: merge is not bit-identical", i, j, g, w)
			}
		}
	}
}

// scrape returns the coordinator's metric exposition for counter asserts.
func scrape(t *testing.T, c *Coordinator) string {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Registry().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func metricLine(t *testing.T, exposition, name string) string {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			return line
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return ""
}

// TestCoordinatorBitIdentity is the tentpole guarantee: Â merged from 3
// workers equals the single-process sketch bit for bit, across
// distributions, algorithms and skewed inputs.
func TestCoordinatorBitIdentity(t *testing.T) {
	_, urls := startWorkers(t, 3, nil)
	c, err := New(Config{Peers: urls, Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	matrices := map[string]*sparse.CSC{
		"uniform":  sparse.RandomUniform(400, 60, 0.05, 11),
		"powerlaw": sparse.PowerLaw(400, 60, 2000, 1.4, 12),
	}
	optsSet := map[string]core.Options{
		"gaussian":   {Dist: rng.Gaussian, Seed: 42, BlockD: 8, Workers: 1},
		"rademacher": {Dist: rng.Rademacher, Seed: 7, Workers: 1},
		"uniform11":  {Dist: rng.Uniform11, Seed: 3, Algorithm: core.Alg4, BlockN: 9, Workers: 1},
	}
	const d = 24
	for mname, a := range matrices {
		for oname, opts := range optsSet {
			got, st, err := c.Sketch(context.Background(), a, d, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", mname, oname, err)
			}
			assertBitIdentical(t, got, directSketch(t, a, d, opts))
			if st.Flops <= 0 || st.Total <= 0 {
				t.Fatalf("%s/%s: aggregated stats not populated: %+v", mname, oname, st)
			}
		}
	}
}

// TestCoordinatorBatch runs the Backend batch path through the fan-out.
func TestCoordinatorBatch(t *testing.T) {
	_, urls := startWorkers(t, 2, nil)
	c, err := New(Config{Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a1 := sparse.RandomUniform(200, 30, 0.1, 21)
	a2 := sparse.PowerLaw(200, 30, 900, 1.2, 22)
	opts := core.Options{Dist: rng.Gaussian, Seed: 5, Workers: 1}
	reqs := []service.Request{
		{A: a1, D: 12, Opts: opts},
		{A: a2, D: 12, Opts: opts},
		{A: nil, D: 12, Opts: opts},
	}
	resps := c.SketchBatch(context.Background(), reqs)
	if !errors.Is(resps[2].Err, core.ErrNilMatrix) {
		t.Fatalf("nil item: %v", resps[2].Err)
	}
	for i, a := range []*sparse.CSC{a1, a2} {
		if resps[i].Err != nil {
			t.Fatalf("item %d: %v", i, resps[i].Err)
		}
		assertBitIdentical(t, resps[i].Ahat, directSketch(t, a, 12, opts))
	}
}

// overloadFrame is a canned StatusOverloaded shard answer.
func overloadFrame(t *testing.T) []byte {
	t.Helper()
	payload := wire.AppendSketchResponse(nil, []wire.SketchResponse{{
		Status: wire.StatusOverloaded, Detail: "test shed",
	}})
	frame, err := wire.AppendFrame(nil, wire.MsgSketchResponse, payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCoordinatorShedThenSucceed: a peer sheds the first shard RPC with
// StatusOverloaded; the client's own retry (not coordinator failover)
// recovers, and the merged result is still bit-identical.
func TestCoordinatorShedThenSucceed(t *testing.T) {
	var sheds atomic.Int64
	_, urls := startWorkers(t, 2, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sketch" && sheds.Add(1) == 1 {
				w.Header().Set("Content-Type", "application/x-sketchsp-wire")
				w.WriteHeader(http.StatusTooManyRequests)
				w.Write(overloadFrame(t))
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	c, err := New(Config{
		Peers:  urls,
		Shards: 2,
		Client: client.Config{MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := sparse.RandomUniform(300, 40, 0.08, 31)
	opts := core.Options{Dist: rng.Gaussian, Seed: 9, Workers: 1}
	got, _, err := c.Sketch(context.Background(), a, 16, opts)
	if err != nil {
		t.Fatalf("sketch after shed: %v", err)
	}
	assertBitIdentical(t, got, directSketch(t, a, 16, opts))
	if sheds.Load() < 2 {
		t.Fatalf("shed middleware saw %d requests; the retry never arrived", sheds.Load())
	}
	// The client retried; the coordinator must NOT have counted a failover.
	if line := metricLine(t, scrape(t, c), "sketchsp_shard_failovers_total"); !strings.HasSuffix(line, " 0") {
		t.Fatalf("failover counted for a client-level retry: %s", line)
	}
}

// TestCoordinatorPeerDownFailFast: with failover disabled
// (MaxPeersPerShard=1) a dead peer fails the request fast with a typed
// *ShardError wrapping the transport cause.
func TestCoordinatorPeerDownFailFast(t *testing.T) {
	// The dead peer is the ONLY peer, so every shard's (length-1) candidate
	// list is the dead peer — mixing in a live peer would make the test a
	// coin flip on which peers the shard fingerprints happen to hash to.
	// The address: holding a listener open but never accepting would hang
	// rather than refuse, and the URL of a *closed* httptest server is racy
	// (the kernel can hand its ephemeral port to the next live test
	// listener). A reserved port (1) is outside the ephemeral range, so
	// nothing in this test binary can ever be serving there.
	deadURL := "http://127.0.0.1:1"
	c, err := New(Config{
		Peers:            []string{deadURL},
		Shards:           4,
		MaxPeersPerShard: 1,
		Client:           client.Config{MaxRetries: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := sparse.RandomUniform(300, 40, 0.08, 41)
	start := time.Now()
	_, _, err = c.Sketch(context.Background(), a, 16, core.Options{Dist: rng.Gaussian, Seed: 1, Workers: 1})
	if err == nil {
		t.Fatal("sketch through a dead peer succeeded with failover disabled")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *ShardError", err, err)
	}
	if se.Peer != deadURL {
		t.Fatalf("ShardError names peer %s, want %s", se.Peer, deadURL)
	}
	if se.J1 <= se.J0 || se.J1 > a.N {
		t.Fatalf("ShardError column range [%d:%d) invalid for n=%d", se.J0, se.J1, a.N)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}
}

// TestCoordinatorDrainFailover: one worker drains mid-workload (its
// service closes, so its RPCs fail with the non-retryable StatusClosed);
// the coordinator reroutes those shards to the surviving peer and the
// merged sketch stays bit-identical.
func TestCoordinatorDrainFailover(t *testing.T) {
	workers, urls := startWorkers(t, 2, nil)
	c, err := New(Config{
		Peers:        urls,
		Shards:       4,
		PeerCooldown: 50 * time.Millisecond,
		Client:       client.Config{MaxRetries: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a := sparse.RandomUniform(300, 40, 0.08, 51)
	opts := core.Options{Dist: rng.Rademacher, Seed: 13, Workers: 1}
	want := directSketch(t, a, 16, opts)

	// Warm pass with both peers up.
	got, _, err := c.Sketch(context.Background(), a, 16, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, got, want)

	// Drain worker 0: in-flight and future RPCs to it fail StatusClosed.
	workers[0].svc.Close()
	got, _, err = c.Sketch(context.Background(), a, 16, opts)
	if err != nil {
		t.Fatalf("sketch during drain: %v", err)
	}
	assertBitIdentical(t, got, want)
	exp := scrape(t, c)
	if line := metricLine(t, exp, "sketchsp_shard_failovers_total"); strings.HasSuffix(line, " 0") {
		t.Fatalf("drain recovered without counting a failover: %s", line)
	}
	// The drained peer is in cooldown: the next request must not touch it,
	// and still merges exactly.
	got, _, err = c.Sketch(context.Background(), a, 16, opts)
	if err != nil {
		t.Fatalf("sketch with peer in cooldown: %v", err)
	}
	assertBitIdentical(t, got, want)
}

// TestCoordinatorInputErrors: input-class failures fail fast without
// failover or peer cooldown.
func TestCoordinatorInputErrors(t *testing.T) {
	_, urls := startWorkers(t, 2, nil)
	c, err := New(Config{Peers: urls})
	if err != nil {
		t.Fatal(err)
	}
	a := sparse.RandomUniform(100, 20, 0.1, 61)
	if _, _, err := c.Sketch(context.Background(), nil, 4, core.Options{}); !errors.Is(err, core.ErrNilMatrix) {
		t.Fatalf("nil matrix: %v", err)
	}
	if _, _, err := c.Sketch(context.Background(), a, 0, core.Options{}); !errors.Is(err, core.ErrInvalidSketchSize) {
		t.Fatalf("d=0: %v", err)
	}
	bad := &sparse.CSC{M: 2, N: 2, ColPtr: []int{0, 1}, RowIdx: []int{0}, Val: []float64{1}}
	if _, _, err := c.Sketch(context.Background(), bad, 4, core.Options{}); !errors.Is(err, core.ErrInvalidMatrix) {
		t.Fatalf("invalid CSC: %v", err)
	}
	// Server-side rejection travels back fail-fast, typed, without a
	// failover (the wire decoder classifies negative block sizes as
	// malformed, exactly like the single-request path).
	_, _, err = c.Sketch(context.Background(), a, 4, core.Options{BlockD: -1})
	if !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("bad options: %v", err)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("server rejection not typed: %T %v", err, err)
	}
	if line := metricLine(t, scrape(t, c), "sketchsp_shard_failovers_total"); !strings.HasSuffix(line, " 0") {
		t.Fatalf("input error triggered failover: %s", line)
	}
	c.Close()
	if _, _, err := c.Sketch(context.Background(), a, 4, core.Options{}); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("after close: %v", err)
	}
}

// TestCoordinatorEmptyConfig pins the constructor contract.
func TestCoordinatorEmptyConfig(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("empty peers: %v", err)
	}
}
