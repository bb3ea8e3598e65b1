package client

import (
	"context"
	"errors"
	"net/http"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
	"sketchsp/internal/store"
	"sketchsp/internal/wire"
)

// This file is the client half of the content-addressed protocol: upload a
// matrix once, then sketch it by its 32-byte fingerprint forever after.
// SketchCached is the method most callers want — it sketches by reference
// and transparently cures a StatusNotFound (never uploaded, or evicted by
// the server's store budget) with one upload-and-retry, so the caller sees
// the repeat-traffic win without managing residency.

// PutMatrix uploads a into the server's content-addressed store and
// returns its identity (Created reports whether the upload inserted or
// found the matrix already resident). Idempotent: re-uploading costs the
// body bytes but changes nothing.
func (c *Client) PutMatrix(ctx context.Context, a *sparse.CSC) (store.Info, error) {
	if a == nil {
		return store.Info{}, core.ErrNilMatrix
	}
	body, err := wire.EncodeMatrixPutFrame(a)
	if err != nil {
		return store.Info{}, err
	}
	payload, err := c.do(ctx, http.MethodPut, "/v1/matrix", body)
	if err != nil {
		return store.Info{}, err
	}
	return decodeInfo(payload)
}

// SketchRef computes Â = S·A on the server for the already-uploaded matrix
// fp: the request is a fixed wire.SketchRefWireSize-byte frame regardless
// of nnz(A). A server that no longer holds fp fails with an error
// unwrapping to store.ErrNotFound — use SketchCached for the self-curing
// path.
func (c *Client) SketchRef(ctx context.Context, fp sparse.Fingerprint, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	return c.one(ctx, wire.SketchItem{D: d, Opts: opts, ByRef: true, Fp: fp})
}

// SketchCached sketches a by reference, uploading it first only when the
// server does not hold it: try the O(1) by-ref request, and on
// StatusNotFound upload the matrix and retry once. Steady state ships
// O(1) bytes per request; the O(nnz) upload happens once per server
// residency. The answer is bit-identical to Sketch(a, d, opts) either way.
func (c *Client) SketchCached(ctx context.Context, a *sparse.CSC, d int, opts core.Options) (*dense.Matrix, core.Stats, error) {
	if a == nil {
		return nil, core.Stats{}, core.ErrNilMatrix
	}
	fp := a.Fingerprint()
	ahat, st, err := c.SketchRef(ctx, fp, d, opts)
	if !errors.Is(err, store.ErrNotFound) {
		return ahat, st, err
	}
	if _, err := c.PutMatrix(ctx, a); err != nil {
		return nil, core.Stats{}, err
	}
	// One retry only: a NotFound right after a successful upload means the
	// server is evicting faster than we can feed it — give the caller the
	// truth instead of looping.
	return c.SketchRef(ctx, fp, d, opts)
}

// PatchMatrix applies the sparse delta to the stored matrix fp and returns
// the merged matrix's identity. The original matrix stays addressable under
// fp; sketches of the new fingerprint are served incrementally (Â + S·ΔA)
// by the server without resketching from scratch.
func (c *Client) PatchMatrix(ctx context.Context, fp sparse.Fingerprint, delta *sparse.CSC) (store.Info, error) {
	if delta == nil {
		return store.Info{}, core.ErrNilMatrix
	}
	body, err := wire.EncodeMatrixDeltaFrame(&wire.MatrixDelta{Fp: fp, Delta: delta})
	if err != nil {
		return store.Info{}, err
	}
	payload, err := c.do(ctx, http.MethodPatch, "/v1/matrix/"+wire.FormatFingerprint(fp), body)
	if err != nil {
		return store.Info{}, err
	}
	return decodeInfo(payload)
}

func decodeInfo(payload []byte) (store.Info, error) {
	info, err := wire.DecodeMatrixInfo(payload)
	if err != nil {
		return store.Info{}, err
	}
	if err := info.Err(); err != nil {
		return store.Info{}, err
	}
	return store.Info{Fp: info.Fp, Bytes: info.Bytes, Created: info.Created}, nil
}
