package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/service"
	"sketchsp/internal/sparse"
	"sketchsp/internal/wire"
)

// Fuzz routes: which endpoint a fuzz body is sent to.
const (
	routeSketch = iota // POST /v1/sketch
	routePut           // PUT /v1/matrix
	routePatch         // PATCH /v1/matrix/{fp}
	numRoutes
)

// Bounds on what a fuzz body may ask the service to build. The handler
// itself caps bodies and Â sizes, but a plan's cost also grows with the
// row count (the Alg4 conversion allocates per row) and with the task
// grid, which no server limit bounds; bodies beyond these bounds are not
// sent, so the fuzzer stays a correctness search on a small machine.
const (
	fuzzMaxDim     = 1 << 10
	fuzzMaxD       = 64
	fuzzMaxWorkers = 4
)

// FuzzSketchHandler drives the three matrix-carrying endpoints of one
// real service.Service with arbitrary bodies. For every body it checks
// that the handler does not panic, that the response is a well-formed
// frame whose HTTP code matches its wire status, and that fixed valid
// requests sent afterwards — inline through the pooled decode scratch,
// and by reference through the store and the sketch cache — still answer
// bit-identically to a direct plan, so no cache entry or pooled scratch
// was poisoned by the body.
func FuzzSketchHandler(f *testing.F) {
	svc := service.New(service.Config{Capacity: 8})
	f.Cleanup(svc.Close)
	srv := New(svc, Config{MaxBodyBytes: 1 << 20, MaxSketchBytes: 1 << 20})

	fixed := sparse.PowerLaw(120, 24, 300, 1.2, 5)
	const fixedD = 8
	fixedOpts := core.Options{Dist: rng.Rademacher, Seed: 17, Workers: 2}
	p, err := core.NewPlan(fixed, fixedD, fixedOpts)
	if err != nil {
		f.Fatal(err)
	}
	want := dense.NewMatrix(fixedD, fixed.N)
	if _, err := p.Execute(want); err != nil {
		f.Fatal(err)
	}
	p.Close()
	inlineFrame := mustSketchFrame(f, []wire.SketchItem{{D: fixedD, Opts: fixedOpts, A: fixed}})
	refFrame := mustSketchFrame(f, []wire.SketchItem{{D: fixedD, Opts: fixedOpts, ByRef: true, Fp: fixed.Fingerprint()}})
	putFrame, err := wire.EncodeMatrixPutFrame(fixed)
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: the committed wire corpus, routed by frame type, plus one
	// valid frame per item form.
	for _, frame := range committedWireCorpus(f) {
		f.Add(uint8(routeOf(frame)), frame)
	}
	f.Add(uint8(routeSketch), inlineFrame)
	f.Add(uint8(routeSketch), refFrame)
	f.Add(uint8(routeSketch), mustSketchFrame(f, []wire.SketchItem{
		{D: 4, Opts: fixedOpts, A: fixed.ColSlice(0, 10), Placed: true, J0: 0, NTotal: fixed.N},
		{D: 4, Opts: fixedOpts, A: fixed.ColSlice(10, 24), Placed: true, J0: 10, NTotal: fixed.N},
	}))
	f.Add(uint8(routePut), putFrame)

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		route %= numRoutes
		if !fuzzBodyBounded(route, body) {
			return
		}
		path := "/v1/sketch"
		method := http.MethodPost
		switch route {
		case routePut:
			method, path = http.MethodPut, "/v1/matrix"
		case routePatch:
			method, path = http.MethodPatch, "/v1/matrix/"+patchTarget(body)
		}
		code, frame := serveFuzz(srv, method, path, body)
		checkResponse(t, route, code, frame)

		// Poisoning checks: the fixed requests still answer exactly.
		if code, resp := serveFuzz(srv, http.MethodPut, "/v1/matrix", putFrame); code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("fixed PUT after fuzz body: HTTP %d (%x)", code, resp)
		}
		for name, req := range map[string][]byte{"inline": inlineFrame, "by-ref": refFrame} {
			code, resp := serveFuzz(srv, http.MethodPost, "/v1/sketch", req)
			rs := decodeSketchResponse(t, resp)
			if code != http.StatusOK || len(rs) != 1 || rs[0].Status != wire.StatusOK {
				t.Fatalf("fixed %s sketch after fuzz body: HTTP %d, %+v", name, code, rs)
			}
			if err := bitIdentical(want, rs[0].Ahat); err != nil {
				t.Fatalf("fixed %s sketch after fuzz body differs from direct plan: %v", name, err)
			}
		}
	})
}

// serveFuzz runs one request through the handler in process.
func serveFuzz(srv *Server, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// checkResponse asserts a response is one well-formed frame of the
// route's answer type whose HTTP code matches its wire status.
func checkResponse(t *testing.T, route uint8, code int, frame []byte) {
	t.Helper()
	typ, payload, rest, err := wire.SplitFrame(frame, 0)
	if err != nil || len(rest) != 0 {
		t.Fatalf("HTTP %d response is not one frame: %v (%d trailing bytes)", code, err, len(rest))
	}
	if route == routeSketch {
		if typ != wire.MsgSketchResponse {
			t.Fatalf("sketch answered with %v", typ)
		}
		rs, err := wire.DecodeSketchResponse(payload)
		if err != nil {
			t.Fatalf("sketch response does not decode: %v", err)
		}
		want := http.StatusOK
		if len(rs) == 1 {
			want = httpStatus(rs[0].Status)
		}
		if len(rs) == 0 || code != want {
			t.Fatalf("HTTP %d for %d response items (want %d)", code, len(rs), want)
		}
		return
	}
	if typ != wire.MsgMatrixInfo {
		t.Fatalf("matrix endpoint answered with %v", typ)
	}
	info, err := wire.DecodeMatrixInfo(payload)
	if err != nil {
		t.Fatalf("matrix-info response does not decode: %v", err)
	}
	want := httpStatus(info.Status)
	if info.Created {
		want = http.StatusCreated
	}
	if code != want {
		t.Fatalf("HTTP %d for matrix-info status %v (want %d)", code, info.Status, want)
	}
}

// decodeSketchResponse decodes a sketch response frame.
func decodeSketchResponse(t *testing.T, frame []byte) []wire.SketchResponse {
	t.Helper()
	typ, payload, _, err := wire.SplitFrame(frame, 0)
	if err != nil || typ != wire.MsgSketchResponse {
		t.Fatalf("not a sketch response frame: %v, %v", typ, err)
	}
	rs, err := wire.DecodeSketchResponse(payload)
	if err != nil {
		t.Fatalf("sketch response does not decode: %v", err)
	}
	return rs
}

// fuzzBodyBounded reports whether a body is within the fuzz bounds. Bodies
// that do not decode are always sent: rejecting them is the handler's job.
func fuzzBodyBounded(route uint8, body []byte) bool {
	typ, payload, _, err := wire.SplitFrame(body, 0)
	if err != nil {
		return true
	}
	small := func(a *sparse.CSC) bool { return a.M <= fuzzMaxDim && a.N <= fuzzMaxDim }
	switch {
	case route == routeSketch && typ == wire.MsgSketchRequest:
		items, err := wire.DecodeSketchRequest(payload)
		if err != nil {
			return true
		}
		for _, it := range items {
			if it.D > fuzzMaxD || it.Opts.Workers > fuzzMaxWorkers || it.Opts.Sparsity > fuzzMaxD ||
				(!it.ByRef && !small(it.A)) {
				return false
			}
		}
	case route == routePut && typ == wire.MsgMatrixPut:
		if a, err := wire.DecodeMatrixPut(payload); err == nil && !small(a) {
			return false
		}
	case route == routePatch && typ == wire.MsgMatrixDelta:
		if d, err := wire.DecodeMatrixDelta(payload); err == nil && !small(d.Delta) {
			return false
		}
	}
	return true
}

// patchTarget names the PATCH path fingerprint: the frame's own when the
// body is a decodable delta (so the handler gets past its path check), a
// fixed one otherwise.
func patchTarget(body []byte) string {
	if typ, payload, _, err := wire.SplitFrame(body, 0); err == nil && typ == wire.MsgMatrixDelta {
		if d, err := wire.DecodeMatrixDelta(payload); err == nil {
			return wire.FormatFingerprint(d.Fp)
		}
	}
	return "1-1-1-0000000000000001"
}

// routeOf picks the endpoint a corpus frame is meant for.
func routeOf(frame []byte) int {
	if len(frame) > 4 {
		switch wire.MsgType(frame[4]) {
		case wire.MsgMatrixPut:
			return routePut
		case wire.MsgMatrixDelta:
			return routePatch
		}
	}
	return routeSketch
}

func mustSketchFrame(f *testing.F, items []wire.SketchItem) []byte {
	f.Helper()
	frame, err := wire.EncodeSketchRequestFrame(items)
	if err != nil {
		f.Fatal(err)
	}
	return frame
}

// committedWireCorpus reads the wire fuzzer's committed corpus: files in
// the "go test fuzz v1" format holding one []byte value each.
func committedWireCorpus(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "wire", "testdata", "fuzz", "FuzzWireRoundtrip", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("wire corpus not found: %v", err)
	}
	var frames [][]byte
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			f.Fatalf("%s: not a one-value []byte corpus file", path)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		frames = append(frames, []byte(s))
	}
	return frames
}
