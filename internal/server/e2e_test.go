package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// startServer runs a real server on a loopback listener and returns its
// base URL plus the shared service for in-process poking.
func startServer(t *testing.T, svcCfg service.Config, srvCfg Config) (string, *service.Service, *Server) {
	t.Helper()
	svc := service.New(svcCfg)
	srv := New(svc, srvCfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(l); err != nil && err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		<-done
		svc.Close()
	})
	return "http://" + l.Addr().String(), svc, srv
}

// e2eMatrices is the shape corpus for the bit-identity test: realistic plus
// every degenerate the codec and the planner must agree on.
func e2eMatrices(t *testing.T) map[string]*sparse.CSC {
	t.Helper()
	ms := map[string]*sparse.CSC{
		"powerlaw": sparse.PowerLaw(500, 120, 6000, 1.0, 11),
		"uniform":  sparse.RandomUniform(300, 80, 0.02, 5),
		"0xn":      {M: 0, N: 17, ColPtr: make([]int, 18)},
		"mx0":      {M: 23, N: 0, ColPtr: []int{0}},
	}
	empty, err := sparse.NewCSC(40, 6,
		[]int{0, 2, 2, 2, 5, 5, 5},
		[]int{1, 30, 0, 7, 39},
		[]float64{1, -2, 3, -4, 5})
	if err != nil {
		t.Fatal(err)
	}
	ms["emptycols"] = empty
	for name, a := range ms {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return ms
}

// bitIdentical compares two dense matrices by Float64bits — the serving
// path must reproduce the in-process sketch exactly, not approximately.
func bitIdentical(a, b *dense.Matrix) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("dims %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
				return fmt.Errorf("bit mismatch at (%d,%d): %v vs %v", i, j, ca[i], cb[i])
			}
		}
	}
	return nil
}

// TestE2ELoopbackBitIdentity round-trips sketches through a real HTTP
// server and asserts the result is bit-identical to executing the same plan
// directly, across distributions, RNG sources and worker counts.
func TestE2ELoopbackBitIdentity(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})

	configs := []struct {
		name string
		opts core.Options
	}{
		{"uniform-batch-w1", core.Options{Dist: rng.Uniform11, Source: rng.SourceBatchXoshiro, Workers: 1, Seed: 42}},
		{"rademacher-batch-w4", core.Options{Dist: rng.Rademacher, Source: rng.SourceBatchXoshiro, Workers: 4, Seed: 7}},
		{"gaussian-scalar-w2", core.Options{Dist: rng.Gaussian, Source: rng.SourceScalarXoshiro, Workers: 2, Seed: 99}},
		{"scaledint-philox-w3", core.Options{Dist: rng.ScaledInt, Source: rng.SourcePhilox, Workers: 3, Seed: 3}},
	}
	const d = 48
	for name, a := range e2eMatrices(t) {
		for _, cfg := range configs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				p, err := core.NewPlan(a, d, cfg.opts)
				if err != nil {
					t.Fatalf("NewPlan: %v", err)
				}
				defer p.Close()
				want := dense.NewMatrix(d, a.N)
				if _, err := p.Execute(want); err != nil {
					t.Fatalf("direct Execute: %v", err)
				}

				got, stats, err := c.Sketch(context.Background(), a, d, cfg.opts)
				if err != nil {
					t.Fatalf("client Sketch: %v", err)
				}
				if err := bitIdentical(want, got); err != nil {
					t.Fatalf("served sketch differs from direct: %v", err)
				}
				if a.NNZ() > 0 && stats.Samples == 0 {
					t.Error("served stats lost Samples")
				}
			})
		}
	}
}

// TestE2EBatch round-trips a mixed batch: every item must come back
// index-aligned and bit-identical to its direct execution.
func TestE2EBatch(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})

	ms := e2eMatrices(t)
	opts := core.Options{Dist: rng.Rademacher, Seed: 123, Workers: 2}
	reqs := []wire.SketchItem{
		{D: 16, Opts: opts, A: ms["powerlaw"]},
		{D: 8, Opts: opts, A: ms["emptycols"]},
		{D: 4, Opts: opts, A: ms["0xn"]},
	}
	rs, err := c.Do(context.Background(), reqs)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	for i, req := range reqs {
		if rs[i].Status != wire.StatusOK {
			t.Fatalf("item %d: %v (%s)", i, rs[i].Status, rs[i].Detail)
		}
		p, err := core.NewPlan(req.A, req.D, req.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want := dense.NewMatrix(req.D, req.A.N)
		if _, err := p.Execute(want); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if err := bitIdentical(want, rs[i].Ahat); err != nil {
			t.Errorf("batch item %d differs from direct: %v", i, err)
		}
	}
}

// TestE2EConcurrentAlternatingMatrices hammers one server from several
// goroutines alternating between two same-shaped but different-valued
// matrices. The server decodes requests into pooled scratch whose backing
// arrays are reused across requests, so a cached plan must own a private
// copy of its matrix: an aliasing plan races against later decodes (caught
// under -race) and serves the sketch of whatever matrix was decoded last
// into the shared arrays (caught by the bit-identity check).
func TestE2EConcurrentAlternatingMatrices(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})

	const d = 16
	opts := core.Options{Dist: rng.Rademacher, Seed: 9, Workers: 2}
	mats := []*sparse.CSC{
		sparse.RandomUniform(400, 60, 0.05, 21),
		sparse.RandomUniform(400, 60, 0.05, 22),
	}
	want := make([]*dense.Matrix, len(mats))
	for i, a := range mats {
		p, err := core.NewPlan(a, d, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = dense.NewMatrix(d, a.N)
		if _, err := p.Execute(want[i]); err != nil {
			t.Fatal(err)
		}
		p.Close()
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := client.New(base, client.Config{})
			for it := 0; it < 12; it++ {
				i := (g + it) % len(mats)
				got, _, err := c.Sketch(context.Background(), mats[i], d, opts)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if err := bitIdentical(want[i], got); err != nil {
					t.Errorf("goroutine %d iter %d: cached plan served the wrong matrix: %v", g, it, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// waitFor polls cond for up to 5s — used to line up the overload window.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestE2EOverloadShedAndRetry pins the backpressure path end to end: with
// the single admission slot held and the queue full, a no-retry client is
// shed with ErrOverloaded immediately, while a retrying client backs off
// and succeeds once the blocker drains.
func TestE2EOverloadShedAndRetry(t *testing.T) {
	base, svc, _ := startServer(t,
		service.Config{MaxInFlight: 1, MaxQueue: 1, Capacity: 8},
		Config{})

	// Blocker: a deliberately expensive single-worker sketch that owns the
	// one admission slot for a while. ~200M samples keeps the slot busy
	// long enough to probe even without the race detector's slowdown.
	heavy := sparse.RandomUniform(2000, 200, 0.25, 17)
	small := sparse.PowerLaw(200, 40, 800, 1.0, 3)
	smallOpts := core.Options{Dist: rng.Rademacher, Seed: 5, Workers: 2}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, _, err := svc.Sketch(context.Background(), heavy, 2000, core.Options{Workers: 1, Seed: 1}); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	waitFor(t, "blocker in flight", func() bool { return svc.Stats().InFlight >= 1 })
	go func() {
		defer wg.Done()
		if _, _, err := svc.Sketch(context.Background(), small, 8, smallOpts); err != nil {
			t.Errorf("queued waiter: %v", err)
		}
	}()
	waitFor(t, "waiter queued", func() bool { return svc.Stats().QueueDepth >= 1 })

	// Slot held + queue full: a client with retries disabled must surface
	// ErrOverloaded from its single attempt.
	noRetry := client.New(base, client.Config{MaxRetries: -1})
	_, _, err := noRetry.Sketch(context.Background(), small, 8, smallOpts)
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("no-retry client err = %v, want Is(service.ErrOverloaded)", err)
	}
	var se *wire.StatusError
	if !errors.As(err, &se) || se.Code != wire.StatusOverloaded {
		t.Fatalf("no-retry client err = %#v, want *wire.StatusError{StatusOverloaded}", err)
	}

	// A retrying client hitting the same wall backs off until the blocker
	// drains, then succeeds.
	retrying := client.New(base, client.Config{
		MaxRetries:  400,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ahat, _, err := retrying.Sketch(ctx, small, 8, smallOpts)
	if err != nil {
		t.Fatalf("retrying client: %v", err)
	}
	if ahat.Rows != 8 || ahat.Cols != small.N {
		t.Fatalf("retrying client sketch dims %dx%d", ahat.Rows, ahat.Cols)
	}
	wg.Wait()

	if st := svc.Stats(); st.Rejections < 1 {
		t.Errorf("Rejections = %d, want >= 1", st.Rejections)
	}
}

// TestE2EInvalidInputStatuses pins the error taxonomy across the wire: bad
// requests come back as the canonical sentinels, not as blanket failures.
func TestE2EInvalidInputStatuses(t *testing.T) {
	base, _, _ := startServer(t, service.Config{}, Config{})
	c := client.New(base, client.Config{})
	a := sparse.RandomUniform(50, 10, 0.1, 1)

	if _, _, err := c.Sketch(context.Background(), a, 0, core.Options{}); !errors.Is(err, core.ErrInvalidSketchSize) {
		t.Errorf("d=0 err = %v, want Is(core.ErrInvalidSketchSize)", err)
	}
	// Negative option fields never reach the service: the codec itself
	// rejects them as malformed.
	if _, _, err := c.Sketch(context.Background(), a, 8, core.Options{Workers: -3}); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("negative workers err = %v, want Is(wire.ErrMalformed)", err)
	}
	// A sketch bigger than the server's MaxSketchBytes cap is refused as
	// bad options before any allocation.
	capped, _, _ := startServer(t, service.Config{}, Config{MaxSketchBytes: 1024})
	cc := client.New(capped, client.Config{})
	if _, _, err := cc.Sketch(context.Background(), a, 10000, core.Options{}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("oversized sketch err = %v, want Is(core.ErrBadOptions)", err)
	}
	// A structurally broken matrix is rejected at decode (the codec
	// re-validates) — still ErrMalformed→StatusMalformed, never a panic.
	bad := &sparse.CSC{M: 5, N: 2, ColPtr: []int{0, 9, 1}, RowIdx: []int{0}, Val: []float64{1}}
	if _, _, err := c.Sketch(context.Background(), bad, 8, core.Options{}); !errors.Is(err, wire.ErrMalformed) {
		t.Errorf("broken CSC err = %v, want Is(wire.ErrMalformed)", err)
	}
}

// TestE2EHealthzAndDrain asserts the lifecycle: healthy servers say ok,
// draining servers flip /healthz to 503 before the listener closes.
func TestE2EHealthzAndDrain(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := New(svc, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	waitFor(t, "server accepting", func() bool {
		res, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		res.Body.Close()
		return res.StatusCode == http.StatusOK
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !srv.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
	// The handler keeps answering 503 for connections that raced shutdown.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", rec.Code)
	}
}
