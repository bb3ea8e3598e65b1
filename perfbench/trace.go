package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span layers. Each name is one layer boundary the benchmark wraps from its
// own code; a span's parent is the span that caused it.
const (
	layerClient        = "client"         // the benchmark's call into client.Client
	layerClientRPC     = "client_rpc"     // one HTTP exchange of that call (RoundTripper)
	layerServer        = "server"         // front server handler (server + wire decode/encode)
	layerBackend       = "backend"        // front server's service.Backend (decorator)
	layerPeerRPC       = "peer_rpc"       // one coordinator → worker HTTP exchange
	layerWorkerServer  = "worker_server"  // worker's handler
	layerWorkerBackend = "worker_backend" // worker's service.Backend (decorator)
	layerKernel        = "kernel"         // one Plan.Execute (in-process workload)
)

// Request-ID propagation headers, set only by the benchmark's RoundTripper
// and read only by the benchmark's handler middleware.
const (
	hdrReq    = "X-Perfbench-Req"
	hdrParent = "X-Perfbench-Parent"
)

// span is one recorded interval. Start and End are nanoseconds since the
// tracer's epoch (one monotonic clock for every layer of the process).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while enabled. Disabled, every method is a
// no-op that allocates nothing, so untraced phases pay only a nil check.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

type ctxKey struct{}

// spanCtx is what a context carries between layers: the request and the
// span that new child spans hang under.
type spanCtx struct{ req, parent uint64 }

func fromCtx(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(ctxKey{}).(spanCtx)
	return sc, ok
}

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// root starts a request's root span with a fresh request ID.
func (t *tracer) root(ctx context.Context, name, op string) (context.Context, *openSpan) {
	if !t.on.Load() {
		return ctx, nil
	}
	id := t.ids.Add(1)
	o := &openSpan{t: t, s: span{ID: id, Req: id, Name: name, Op: op, Start: t.now()}}
	return context.WithValue(ctx, ctxKey{}, spanCtx{req: id, parent: id}), o
}

// child starts a span under the one ctx carries; untraced contexts get none.
func (t *tracer) child(ctx context.Context, name string) (context.Context, *openSpan) {
	if !t.on.Load() {
		return ctx, nil
	}
	sc, ok := fromCtx(ctx)
	if !ok {
		return ctx, nil
	}
	id := t.ids.Add(1)
	o := &openSpan{t: t, s: span{ID: id, Parent: sc.parent, Req: sc.req, Name: name, Start: t.now()}}
	return context.WithValue(ctx, ctxKey{}, spanCtx{req: sc.req, parent: id}), o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.s.End = o.t.now()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// middleware wraps a server handler: a request carrying the benchmark's
// headers gets a span named layer, and its context carries the request ID
// down to the backend decorator and onward RPCs.
func (t *tracer) middleware(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err1 := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		parent, err2 := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		if err1 != nil || err2 != nil || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		ctx := context.WithValue(r.Context(), ctxKey{}, spanCtx{req: req, parent: parent})
		ctx, sp := t.child(ctx, layer)
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.end()
	})
}

// roundTripper counts request and response body bytes and, when the
// request's context is traced, records one span per HTTP exchange and
// forwards the request ID in headers.
type roundTripper struct {
	base     http.RoundTripper
	t        *tracer
	layer    string
	bytesOut atomic.Int64
	bytesIn  atomic.Int64
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.ContentLength > 0 {
		rt.bytesOut.Add(req.ContentLength)
	}
	ctx, sp := rt.t.child(req.Context(), rt.layer)
	if sp != nil {
		req = req.Clone(ctx)
		req.Header.Set(hdrReq, strconv.FormatUint(sp.s.Req, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(sp.s.ID, 10))
	}
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &rt.bytesIn, sp: sp}
	return resp, nil
}

// countingBody counts response bytes and ends the exchange's span when the
// caller closes the body, i.e. after it has read the whole response.
type countingBody struct {
	io.ReadCloser
	n    *atomic.Int64
	sp   *openSpan
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.sp.end)
	return err
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reqTree is one request's spans, indexed for attribution.
type reqTree struct {
	root *span
	kids map[uint64][]*span
}

// groupRequests builds one tree per request from a span list. Spans whose
// parent was not recorded are orphans: they are counted and left out.
func groupRequests(spans []span) (trees map[uint64]*reqTree, orphans int) {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	trees = map[uint64]*reqTree{}
	tree := func(req uint64) *reqTree {
		t := trees[req]
		if t == nil {
			t = &reqTree{kids: map[uint64][]*span{}}
			trees[req] = t
		}
		return t
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Parent == 0:
			tree(s.Req).root = s
		case byID[s.Parent] == nil:
			orphans++
		default:
			t := tree(s.Req)
			t.kids[s.Parent] = append(t.kids[s.Parent], s)
		}
	}
	for req, t := range trees {
		if t.root == nil {
			delete(trees, req)
		}
	}
	return trees, orphans
}

// attribute splits the request's root duration into per-layer self times
// along its blocking path. A span's own share is its self time: its
// duration minus the time its children cover, overlapping children counted
// once. The covered time goes to the children, walking back from the span's
// end and always taking the child that finished last, so of parallel
// children (shard fan-out, hedges) only the one the caller waited for is
// charged. Children are clipped to their parent. The shares sum to the
// root's duration.
func (t *reqTree) attribute(out map[string]int64) {
	var walk func(s *span, lo, hi int64)
	walk = func(s *span, lo, hi int64) {
		cur := hi
		kids := t.kids[s.ID]
		for {
			var pick *span
			var pickEnd int64
			for _, c := range kids {
				e := min(c.End, cur)
				if c.Start < cur && e > lo && (pick == nil || e > pickEnd) {
					pick, pickEnd = c, e
				}
			}
			if pick == nil {
				break
			}
			out[s.Name] += cur - pickEnd
			b := max(pick.Start, lo)
			walk(pick, b, pickEnd)
			cur = b
		}
		out[s.Name] += cur - lo
	}
	walk(t.root, t.root.Start, t.root.End)
}

// first returns the earliest-starting span named name in the tree.
func (t *reqTree) first(name string) *span {
	var best *span
	for _, ks := range t.kids {
		for _, s := range ks {
			if s.Name == name && (best == nil || s.Start < best.Start) {
				best = s
			}
		}
	}
	return best
}
