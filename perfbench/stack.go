package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"sketchsp/internal/client"
	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/obs"
	"sketchsp/internal/server"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
)

// timedBackend is the benchmark's decorator around a server's backend: it
// records one span per call, so a request's backend time can be split from
// the time the client saw. It forwards every call unchanged.
type timedBackend struct {
	inner service.RefBackend
	t     *tracer
	layer string
}

var _ service.RefBackend = (*timedBackend)(nil)

func (b *timedBackend) Sketch(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	ctx, sp := b.t.child(ctx, b.layer)
	defer sp.end()
	return b.inner.Sketch(ctx, a, d, opts)
}

func (b *timedBackend) SketchBatch(ctx context.Context, reqs []service.Request) []service.Response {
	ctx, sp := b.t.child(ctx, b.layer)
	defer sp.end()
	return b.inner.SketchBatch(ctx, reqs)
}

func (b *timedBackend) PutMatrix(ctx context.Context, a *sparse.CSC) (store.Info, error) {
	ctx, sp := b.t.child(ctx, b.layer)
	defer sp.end()
	return b.inner.PutMatrix(ctx, a)
}

func (b *timedBackend) SketchRef(ctx context.Context, fp sparse.Fingerprint, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	ctx, sp := b.t.child(ctx, b.layer)
	defer sp.end()
	return b.inner.SketchRef(ctx, fp, d, opts)
}

func (b *timedBackend) PatchMatrix(ctx context.Context, fp sparse.Fingerprint, delta *sparse.CSC) (store.Info, error) {
	ctx, sp := b.t.child(ctx, b.layer)
	defer sp.end()
	return b.inner.PatchMatrix(ctx, fp, delta)
}

func (b *timedBackend) Close() { b.inner.Close() }

// loopServer is one server.NewBackend instance on a loopback listener,
// its handler wrapped in the benchmark's tracing middleware.
type loopServer struct {
	URL     string
	backend service.Backend
	hs      *http.Server
	done    chan error
}

func startServer(b service.RefBackend, reg *obs.Registry, t *tracer, serverLayer, backendLayer string) (*loopServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	dec := &timedBackend{inner: b, t: t, layer: backendLayer}
	srv := server.NewBackend(dec, server.Config{Metrics: reg})
	ls := &loopServer{
		URL:     "http://" + ln.Addr().String(),
		backend: dec,
		hs:      &http.Server{Handler: t.middleware(serverLayer, srv.Handler())},
		done:    make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

// close stops accepting, drains in-flight requests, waits for the serve
// goroutine to return, and closes the backend. Callers close their clients'
// idle connections first: a connection a client dialled but never used
// would hold Shutdown for seconds, so after a short drain the rest are cut.
func (ls *loopServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := ls.hs.Shutdown(ctx); errors.Is(err, context.DeadlineExceeded) {
		ls.hs.Close()
	}
	<-ls.done // Serve returns http.ErrServerClosed once shut down
	ls.backend.Close()
}

// newTransport is an HTTP transport holding at most conns connections per
// host: the benchmark's load never uses more than nproc connections.
func newTransport(conns int) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	return tr
}

// frontClient is the benchmark's client of a stack's front server: its
// RoundTripper counts bytes and carries trace context; its registry holds
// the client's own sketchsp_client_* families.
type frontClient struct {
	cli *client.Client
	rt  *roundTripper
	reg *obs.Registry
}

func newFrontClient(url string, t *tracer, conns int) *frontClient {
	rt := &roundTripper{base: newTransport(conns), t: t, layer: layerClientRPC}
	reg := obs.NewRegistry()
	cli := client.New(url, client.Config{HTTPClient: &http.Client{Transport: rt}, Metrics: reg})
	return &frontClient{cli: cli, rt: rt, reg: reg}
}

func (fc *frontClient) close() { fc.rt.base.(*http.Transport).CloseIdleConnections() }

// scraper reads /metrics of a set of servers; it is not traced or counted.
type scraper struct {
	hc   *http.Client
	urls []string
}

func newScraper(urls ...string) *scraper {
	return &scraper{hc: &http.Client{Transport: newTransport(1), Timeout: 10 * time.Second}, urls: urls}
}

// snapshot returns each server's series, in urls order.
func (s *scraper) snapshot() ([]series, error) {
	out := make([]series, len(s.urls))
	for i, u := range s.urls {
		m, err := scrape(s.hc, u)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (s *scraper) close() { s.hc.Transport.(*http.Transport).CloseIdleConnections() }

// deltas returns after − before per server.
func deltas(before, after []series) []series {
	out := make([]series, len(after))
	for i := range after {
		out[i] = delta(before[i], after[i])
	}
	return out
}

// merged sums the series of several servers.
func merged(ss ...series) series {
	out := series{}
	for _, s := range ss {
		out.add(s)
	}
	return out
}
