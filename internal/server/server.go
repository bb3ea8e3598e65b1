// Package server fronts the concurrent sketch service over HTTP: it is the
// network face of the paper's traffic-shape win. A request body carries the
// compact CSC payload plus a seed and distribution — never the dense random
// matrix S — and the response carries only the small d×n sketch Â, so a
// remote sketch moves O(nnz(A) + d·n) bytes while the server regenerates
// the O(d·m) matrix S on the fly inside the cached plan's kernels.
//
// Endpoints:
//
//	POST /v1/sketch   wire.MsgSketchRequest body — a list of sketch items,
//	                  each inline or by fingerprint, whole or a placed
//	                  column shard; responds wire.MsgSketchResponse. The
//	                  HTTP status of a one-item response mirrors its wire
//	                  status (200 OK, 400 invalid, 404 unknown fingerprint,
//	                  429 overloaded, 503 draining/closed, 504 deadline); a
//	                  several-item response is 200 with per-item statuses.
//	                  Clients should classify by the wire status — it
//	                  survives proxies that rewrite HTTP codes.
//	PUT  /v1/matrix   upload a matrix into the content-addressed store;
//	PATCH /v1/matrix/{fp}  apply a sparse delta — see matrix.go.
//	POST /v1/solve, GET/DELETE /v1/jobs/{id}  solves — see solve.go.
//	GET  /healthz     "ok" while serving, 503 once draining.
//	GET  /metrics     Prometheus text exposition (obs.Registry.WriteText):
//	                  the service families, the plan execute families, and
//	                  the sketchsp_http_* transport families (per-status
//	                  response counters and decode/execute/encode stage
//	                  histograms).
//	GET  /debug/pprof/*  net/http/pprof, mounted only when Config.Pprof is
//	                  set (the daemon's -pprof flag).
//
// Backpressure and lifecycle compose with the layers below: admission
// control and shedding live in service.Service (ErrOverloaded becomes
// StatusOverloaded, the only retryable status); per-request deadlines —
// the tighter of Config.RequestTimeout and the client's
// X-Sketchsp-Timeout-Ms header — ride the request context into
// Plan.ExecuteContext, so a dead client stops burning worker time; and
// Shutdown drains in-flight requests before the daemon releases the
// service's cached plans.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/jobs"
	"sketchsp/internal/obs"
	"sketchsp/internal/service"
	"sketchsp/internal/wire"
)

// DefaultSolveSyncNNZ is the nnz(A) threshold above which POST /v1/solve
// answers 202 Accepted and runs the solve as a job instead of holding the
// connection open.
const DefaultSolveSyncNNZ = 1 << 20

// Config sizes the HTTP layer. The zero value selects the defaults.
type Config struct {
	// MaxBodyBytes bounds a request body (enforced with
	// http.MaxBytesReader before any decoding). 0 selects 1 GiB.
	MaxBodyBytes int64
	// MaxSketchBytes bounds the d×n response a single request may demand
	// (8·d·n bytes); beyond it the request is rejected with
	// StatusBadOptions instead of allocating. 0 selects 1 GiB.
	MaxSketchBytes int64
	// RequestTimeout, when positive, caps every request's deadline. A
	// client-supplied X-Sketchsp-Timeout-Ms header can only tighten it.
	RequestTimeout time.Duration
	// Metrics is the registry /metrics serves and the transport families
	// register on. nil selects the service's own registry, which is the
	// right default: one registry per serving stack, so the scrape carries
	// the HTTP, service and plan families together.
	Metrics *obs.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ when set. Off by
	// default: profiling endpoints on a serving port are an operator
	// decision (the daemon's -pprof flag).
	Pprof bool
	// SolveSyncNNZ is the matrix-size threshold (in nonzeros) above which
	// POST /v1/solve becomes a job even without the Async flag. 0 selects
	// DefaultSolveSyncNNZ; negative forces every solve asynchronous.
	SolveSyncNNZ int
	// Jobs sizes the async solve job manager (workers, queue, result TTL
	// and budget). A nil Jobs.Metrics inherits Config.Metrics. Only used
	// when the backend implements service.SolveBackend.
	Jobs jobs.Config
}

// Server is the HTTP serving layer over a service.Backend. Create with New
// (local plan-cache service) or NewBackend (any Backend — the shard
// coordinator's path), mount Handler (or use Serve/Shutdown for the daemon
// lifecycle).
type Server struct {
	backend service.Backend
	cfg     Config
	mux     *http.ServeMux

	httpMu   sync.Mutex
	httpSrv  *http.Server
	draining atomic.Bool

	// Transport counters and stage histograms (metrics.go), exposed as
	// sketchsp_http_* in /metrics.
	met *httpMetrics

	// Async solve jobs (solve.go): created only when the backend
	// implements service.SolveBackend, nil otherwise.
	jobs *jobs.Manager

	scratch sync.Pool // *reqScratch
}

// reqScratch is the pooled per-request workspace: the body buffer, the
// decoded items (whose CSC slices are reused across requests), and the
// response encode buffer.
type reqScratch struct {
	body  []byte
	items []wire.SketchItem
	out   []byte
}

// New returns a Server fronting the local plan-cache service svc.
func New(svc *service.Service, cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = svc.Registry()
	}
	return newServer(svc, cfg)
}

// NewBackend returns a Server fronting an arbitrary Backend — this is how a
// shard coordinator becomes a sketchd: the handler, codec, deadline and
// drain layers are identical, only the execution strategy behind
// Backend.Sketch differs. The backend's own metrics live in cfg.Metrics,
// served at /metrics.
func NewBackend(b service.Backend, cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	return newServer(b, cfg)
}

func newServer(b service.Backend, cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 30
	}
	if cfg.MaxSketchBytes <= 0 {
		cfg.MaxSketchBytes = 1 << 30
	}
	s := &Server{backend: b, cfg: cfg, mux: http.NewServeMux(),
		met: newHTTPMetrics(cfg.Metrics)}
	s.scratch.New = func() interface{} { return new(reqScratch) }
	if _, ok := b.(service.SolveBackend); ok {
		jcfg := cfg.Jobs
		if jcfg.Metrics == nil {
			jcfg.Metrics = cfg.Metrics
		}
		s.jobs = jobs.New(jcfg)
	}
	s.mux.HandleFunc("/v1/sketch", s.handleSketch)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/v1/matrix", s.handleMatrixPut)
	s.mux.HandleFunc("/v1/matrix/", s.handleMatrixPatch)
	if _, ok := b.(service.PeerAdmin); ok {
		s.mux.HandleFunc("/v1/peers", s.handlePeers)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metrics", cfg.Metrics.Handler())
	if cfg.Pprof {
		// Explicit wiring: the package's init only registers on
		// http.DefaultServeMux, which this server never serves.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like http.Server.Serve.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// Shutdown drains gracefully: /healthz flips to 503 (so load balancers
// stop routing here), listeners close, and in-flight requests get until
// ctx's deadline to finish. Once HTTP has drained the job manager is
// closed — queued jobs cancel, running ones have their contexts fired.
// The service itself is left to the caller — the daemon closes it after
// the drain so executing plans stay alive.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	if s.jobs != nil {
		s.jobs.Close()
	}
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// requestContext applies the effective deadline: the tighter of the server
// cap and the client's X-Sketchsp-Timeout-Ms header.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	timeout := s.cfg.RequestTimeout
	if h := r.Header.Get("X-Sketchsp-Timeout-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return nil, nil, fmt.Errorf("%w: bad X-Sketchsp-Timeout-Ms %q", wire.ErrMalformed, h)
		}
		d := time.Duration(ms) * time.Millisecond
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

// httpStatus maps a wire status onto the closest HTTP status code.
func httpStatus(st wire.Status) int {
	switch st {
	case wire.StatusOK:
		return http.StatusOK
	case wire.StatusOverloaded:
		return http.StatusTooManyRequests
	case wire.StatusClosed:
		return http.StatusServiceUnavailable
	case wire.StatusDeadlineExceeded:
		return http.StatusGatewayTimeout
	case wire.StatusCanceled:
		return 499 // client closed request (nginx convention)
	case wire.StatusInternal:
		return http.StatusInternalServerError
	case wire.StatusNotFound, wire.StatusJobNotFound:
		return http.StatusNotFound
	default: // invalid matrix / sketch size / options / malformed bytes
		return http.StatusBadRequest
	}
}

func (s *Server) handleSketch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.met.countCode(http.StatusMethodNotAllowed)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgSketchResponse, wire.StatusMalformed, err.Error())
		return
	}
	defer cancel()
	sc := s.scratch.Get().(*reqScratch)
	defer s.scratch.Put(sc)

	// The decode span covers the whole request-parsing stage: body read,
	// frame split, payload decode.
	dsp := obs.StartSpan(s.met.decode)
	payload, err := s.readFrame(sc, w, r, wire.MsgSketchRequest)
	var items []wire.SketchItem
	if err == nil {
		items, err = wire.DecodeSketchRequestInto(sc.items, payload)
	}
	dsp.End()
	if err != nil {
		s.met.badRequests.Inc()
		s.writeError(w, wire.MsgSketchResponse, wire.StatusOf(err), err.Error())
		return
	}
	sc.items = items
	s.met.requests.Add(int64(len(items)))

	xsp := obs.StartSpan(s.met.execute)
	resps := s.sketchItems(ctx, items)
	xsp.End()
	// A request of several near-MaxSketchBytes sketches can legitimately
	// exceed the 32-bit frame length; answer with a framable error instead
	// of a length-wrapped frame that would desync the client's decoder.
	esp := obs.StartSpan(s.met.encode)
	out, err := wire.AppendFrame(sc.out[:0], wire.MsgSketchResponse, wire.AppendSketchResponse(nil, resps))
	if err != nil {
		esp.End()
		s.writeError(w, wire.MsgSketchResponse, wire.StatusInternal, "response too large to frame: "+err.Error())
		return
	}
	sc.out = out
	code := http.StatusOK
	if len(resps) == 1 {
		code = httpStatus(resps[0].Status)
	}
	s.writeFrame(w, code, sc.out)
	esp.End()
}

// readFrame consumes the request body into the pooled buffer under the
// MaxBodyBytes bound and returns the payload of the one frame it must hold,
// of type want.
func (s *Server) readFrame(sc *reqScratch, w http.ResponseWriter, r *http.Request, want wire.MsgType) ([]byte, error) {
	lr := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := sc.body[:0]
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes && int64(cap(buf)) < n {
		buf = make([]byte, 0, n)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, fmt.Errorf("%w: body exceeds %d bytes", wire.ErrTooLarge, s.cfg.MaxBodyBytes)
			}
			return nil, fmt.Errorf("%w: reading body: %v", wire.ErrMalformed, err)
		}
	}
	sc.body = buf
	s.met.bytesIn.Add(int64(len(buf)))
	typ, payload, _, err := wire.SplitFrame(buf, int(s.cfg.MaxBodyBytes))
	if err == nil && typ != want {
		err = fmt.Errorf("%w: unexpected message type %v", wire.ErrMalformed, typ)
	}
	return payload, err
}

// sketchItems runs every item of one request and returns the
// index-aligned outcomes. A lone inline item — the common request — calls
// Backend.Sketch directly on its pooled CSC; several inline items go
// through Backend.SketchBatch, which groups them by plan key so same-matrix
// sketches (a per-peer batch of shards) resolve the cache once; by-reference
// items resolve through RefBackend.SketchRef one at a time. Placed items
// echo their J0 so the coordinator's merge is robust to reordering.
func (s *Server) sketchItems(ctx context.Context, items []wire.SketchItem) []wire.SketchResponse {
	out := make([]wire.SketchResponse, len(items))
	var batch []service.Request
	var batchIdx []int
	for i := range items {
		it := &items[i]
		if err := s.checkSketchSize(it.D, it.Cols()); err != nil {
			out[i] = wire.SketchResponse{Status: wire.StatusBadOptions, Detail: err.Error()}
			continue
		}
		switch {
		case it.ByRef:
			out[i] = s.sketchRef(ctx, it)
		case len(items) == 1:
			ahat, st, err := s.backend.Sketch(ctx, it.A, it.D, it.Opts)
			out[i] = s.itemResponse(ctx, it, ahat, st, err)
		default:
			batch = append(batch, service.Request{A: it.A, D: it.D, Opts: it.Opts})
			batchIdx = append(batchIdx, i)
		}
	}
	if len(batch) > 0 {
		for k, r := range s.backend.SketchBatch(ctx, batch) {
			i := batchIdx[k]
			out[i] = s.itemResponse(ctx, &items[i], r.Ahat, r.Stats, r.Err)
		}
	}
	return out
}

// sketchRef serves one by-reference item: sketch a stored matrix by
// fingerprint. A backend without a store answers StatusBadOptions.
func (s *Server) sketchRef(ctx context.Context, it *wire.SketchItem) wire.SketchResponse {
	rb, ok := s.backend.(service.RefBackend)
	if !ok {
		return wire.SketchResponse{Status: wire.StatusBadOptions, Detail: errNoStore}
	}
	ahat, st, err := rb.SketchRef(ctx, it.Fp, it.D, it.Opts)
	return s.itemResponse(ctx, it, ahat, st, err)
}

// itemResponse classifies one item's outcome. The Â is freshly allocated
// per item — it is being serialised right after, so pooling it would only
// add copying.
func (s *Server) itemResponse(ctx context.Context, it *wire.SketchItem, ahat *dense.Matrix, st core.Stats, err error) wire.SketchResponse {
	if err != nil {
		// Prefer the context's verdict when the deadline raced the
		// execute: the client asked for a bounded request and should see
		// the deadline status, not an internal cancellation artifact.
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return wire.SketchResponse{Status: wire.StatusOf(err), Detail: err.Error()}
	}
	return wire.SketchResponse{Status: wire.StatusOK, J0: it.J0, Stats: st, Ahat: ahat}
}

// checkSketchSize bounds the response allocation 8·d·n.
func (s *Server) checkSketchSize(d, n int) error {
	if d > 0 && n > 0 && int64(d) > s.cfg.MaxSketchBytes/8/int64(n) {
		return fmt.Errorf("%w: sketch %dx%d exceeds MaxSketchBytes %d",
			core.ErrBadOptions, d, n, s.cfg.MaxSketchBytes)
	}
	return nil
}

// writeError emits a non-OK response frame of the given kind. A sketch
// request that fails as a whole (bytes that do not decode, a bad deadline
// header) is answered with a one-item response carrying the failure.
func (s *Server) writeError(w http.ResponseWriter, typ wire.MsgType, st wire.Status, detail string) {
	var payload []byte
	switch typ {
	case wire.MsgMatrixInfo:
		payload = wire.AppendMatrixInfo(nil, &wire.MatrixInfo{Status: st, Detail: detail})
	case wire.MsgSolveResponse:
		payload = wire.AppendSolveResponse(nil, &wire.SolveResponse{Status: st, Detail: detail})
	case wire.MsgJobStatus:
		payload = wire.AppendJobStatus(nil, &wire.JobStatus{Status: st, Detail: detail})
	default:
		payload = wire.AppendSketchResponse(nil, []wire.SketchResponse{{Status: st, Detail: detail}})
	}
	// An error payload is a status byte plus a short detail string — it
	// cannot reach the frame limit, so the framing error is impossible.
	frame, _ := wire.AppendFrame(nil, typ, payload)
	s.writeFrame(w, httpStatus(st), frame)
}

func (s *Server) writeFrame(w http.ResponseWriter, httpCode int, frame []byte) {
	w.Header().Set("Content-Type", "application/x-sketchsp-wire")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	w.WriteHeader(httpCode)
	s.met.countCode(httpCode)
	n, _ := w.Write(frame)
	s.met.bytesOut.Add(int64(n))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}
