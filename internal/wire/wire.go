// Package wire is the versioned binary codec of the network serving layer:
// it moves sparse.CSC inputs, dense.Matrix sketches, sketch requests and
// responses between internal/client and internal/server without ever putting
// the random matrix S on the wire — the request carries the seed and
// distribution, and the server regenerates S on the fly, so the traffic per
// sketch is O(nnz(A) + d·n) instead of O(d·m) (the same memory-bus argument
// the paper makes, applied to the network).
//
// # Frame layout
//
// Every message is one length-prefixed frame (all integers little-endian):
//
//	offset  size  field
//	0       3     magic "SKW"
//	3       1     version (currently 5)
//	4       1     message type (MsgType)
//	5       3     reserved (must be 0)
//	8       4     payload length (uint32)
//	12      ...   payload
//
// The fleet runs one version: a frame of any other version is rejected as
// malformed, never misparsed, and there is no negotiation or fallback.
//
// # Payload layouts
//
// CSC (type MsgCSC, and embedded in requests):
//
//	u64 m | u64 n | u64 nnz | (n+1)×u64 ColPtr | nnz×u64 RowIdx |
//	nnz×u64 Val (IEEE-754 bits)
//
// Dense (type MsgDense, and embedded in responses):
//
//	u64 rows | u64 cols | rows·cols×u64 column-major values (IEEE-754 bits)
//
// Options block (embedded in sketch and solve requests):
//
//	u64 seed | i64 algorithm | i64 dist | i64 source | i64 blockD |
//	i64 blockN | i64 workers | i64 sched | i64 sparsity | f64 rngCost |
//	u8 flags (bit0 Timed, bit1 TuneBlockN; sketch items add bit2 by-ref
//	and bit3 placed)
//
// Sketch request and response (MsgSketchRequest / MsgSketchResponse,
// sketch.go): one count-prefixed list of items covers a single sketch, a
// batch, a column shard, a per-peer batch of shards, and a sketch of a
// stored matrix by fingerprint. Each request item is d, the options block,
// an optional (j0, nTotal) placement, and the matrix — inline CSC or
// fingerprint; each response item is a status, the j0 echo, the execute
// stats and Â.
//
// By-reference messages (ref.go): MsgMatrixPut uploads a CSC into the
// server's content-addressed store, MsgMatrixDelta applies a sparse ΔA to
// a stored matrix, and MsgMatrixInfo answers both with the (possibly new)
// stored identity.
//
// Solve messages (solve.go): MsgSolveRequest carries a least-squares /
// RandSVD solve (method, gamma/tolerance/rank options, RHS vector, and
// either an inline CSC or a stored fingerprint), MsgSolveResponse answers
// with the solution vector or low-rank factors plus the solver's Info
// measurements, and MsgJobStatus reports an async job's lifecycle state,
// progress, and — once terminal — its embedded result.
//
// # Error taxonomy
//
// Statuses are the wire form of the typed errors the lower layers already
// expose: decode maps a Status back onto the same sentinels
// (core.ErrInvalidMatrix, service.ErrOverloaded, ...) via StatusError, so
// errors.Is works identically in-process and across the network. Only
// StatusOverloaded is retryable; invalid-input statuses never are.
//
// Decoding is total: arbitrary byte mutations are rejected with
// ErrMalformed (or ErrTooLarge), never a panic — FuzzWireRoundtrip pins
// this, and the server depends on it to face untrusted bodies.
package wire

import (
	"context"
	"errors"
	"fmt"
	"io"

	"sketchsp/internal/core"
	"sketchsp/internal/jobs"
	"sketchsp/internal/service"
	"sketchsp/internal/store"
)

// Version is the frame format version this package encodes and accepts.
// Version 2 added the request sparsity field (sparse sketch family);
// version 3 added the by-reference messages and StatusNotFound; version 4
// added the solve messages and StatusJobNotFound; version 5 folded the
// single, batch, shard, shard-batch and by-reference sketch messages into
// one request and one response. Frames of any other version are rejected
// by the version check, never misparsed.
const Version = 5

// HeaderSize is the fixed frame-header length preceding every payload.
const HeaderSize = 12

// DefaultMaxPayload bounds a frame's payload when the caller passes
// maxPayload <= 0: 1 GiB, far above any benchmarked matrix but low enough
// that a corrupt length field cannot demand an absurd allocation.
const DefaultMaxPayload = 1 << 30

// MaxFramePayload is the hard encode-side payload ceiling: the header's
// length field is 32 bits, so a larger payload cannot be framed at all.
// Encoders reject it with ErrTooLarge instead of silently wrapping the
// length and desyncing the stream (a batch of several near-1-GiB items can
// legitimately reach this).
const MaxFramePayload = 1<<32 - 1

// MsgType tags what a frame's payload contains.
type MsgType uint8

// Message types 1–4, 7, 8, 11, 16 and 17 belong to the sketch messages of
// versions 1–4 (single, batch, shard, by-reference and shard-batch) and
// stay unassigned.
const (
	// MsgCSC is a standalone sparse matrix (tools and tests).
	MsgCSC MsgType = 5
	// MsgDense is a standalone dense matrix (tools and tests).
	MsgDense MsgType = 6
	// MsgMatrixPut uploads a CSC matrix into the server's content-addressed
	// store (PUT /v1/matrix); answered with MsgMatrixInfo.
	MsgMatrixPut MsgType = 9
	// MsgMatrixInfo is the outcome of a matrix put or delta: the stored
	// identity (fingerprint, bytes, created flag) or an error status.
	MsgMatrixInfo MsgType = 10
	// MsgMatrixDelta applies a sparse delta ΔA to the stored matrix named
	// by its fingerprint (PATCH /v1/matrix/{fp}); answered with
	// MsgMatrixInfo carrying the post-update identity.
	MsgMatrixDelta MsgType = 12
	// MsgSolveRequest is a least-squares or RandSVD solve request
	// (POST /v1/solve); answered with MsgSolveResponse, or MsgJobStatus
	// when the solve is admitted as an async job.
	MsgSolveRequest MsgType = 13
	// MsgSolveResponse is the outcome of a solve: solution vector or
	// low-rank factors plus timing/iteration Info, or an error status.
	MsgSolveResponse MsgType = 14
	// MsgJobStatus reports an async job (GET/DELETE /v1/jobs/{id} and the
	// 202 Accepted answer of POST /v1/solve): lifecycle state, iteration
	// progress, and the embedded solve result once terminal.
	MsgJobStatus MsgType = 15
	// MsgSketchRequest is a list of sketch items (POST /v1/sketch,
	// sketch.go); answered with MsgSketchResponse.
	MsgSketchRequest MsgType = 18
	// MsgSketchResponse is the index-aligned list of item outcomes.
	MsgSketchResponse MsgType = 19
)

// String implements fmt.Stringer for MsgType.
func (t MsgType) String() string {
	switch t {
	case MsgCSC:
		return "csc"
	case MsgDense:
		return "dense"
	case MsgMatrixPut:
		return "matrix-put"
	case MsgMatrixInfo:
		return "matrix-info"
	case MsgMatrixDelta:
		return "matrix-delta"
	case MsgSolveRequest:
		return "solve-request"
	case MsgSolveResponse:
		return "solve-response"
	case MsgJobStatus:
		return "job-status"
	case MsgSketchRequest:
		return "sketch-request"
	case MsgSketchResponse:
		return "sketch-response"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Codec-level errors. ErrMalformed covers every structural defect a decoder
// can meet — bad magic, unknown version, truncated payload, inconsistent
// array lengths, out-of-domain enum values — so a server can treat any
// errors.Is(err, ErrMalformed) as "reject with StatusMalformed, HTTP 400".
var (
	// ErrMalformed is returned for bytes that are not a well-formed message.
	ErrMalformed = errors.New("wire: malformed message")
	// ErrTooLarge is returned when a frame's declared payload exceeds the
	// caller's size limit.
	ErrTooLarge = errors.New("wire: message exceeds size limit")
	// ErrInternal is the client-side sentinel for StatusInternal: the
	// server failed in a way it did not classify.
	ErrInternal = errors.New("wire: internal server error")
)

// Status is the typed outcome code of a sketch response. The zero value is
// success; every non-zero code corresponds to exactly one error sentinel of
// the lower layers (see Err), so classification survives the network.
type Status uint8

const (
	// StatusOK: the sketch completed; the response carries Â and Stats.
	StatusOK Status = 0
	// StatusInvalidMatrix: the CSC input was structurally broken
	// (core.ErrInvalidMatrix).
	StatusInvalidMatrix Status = 1
	// StatusInvalidSketchSize: d was not positive (core.ErrInvalidSketchSize).
	StatusInvalidSketchSize Status = 2
	// StatusBadOptions: an Options field was out of domain (core.ErrBadOptions).
	StatusBadOptions Status = 3
	// StatusNilMatrix: the request carried no matrix (core.ErrNilMatrix).
	StatusNilMatrix Status = 4
	// StatusPlanClosed: the plan was released mid-request (core.ErrPlanClosed).
	StatusPlanClosed Status = 5
	// StatusOverloaded: the admission queue was full (service.ErrOverloaded).
	// The only retryable status — the server is healthy but saturated.
	StatusOverloaded Status = 6
	// StatusClosed: the service is shut down or draining (service.ErrClosed).
	StatusClosed Status = 7
	// StatusDeadlineExceeded: the request deadline fired
	// (context.DeadlineExceeded).
	StatusDeadlineExceeded Status = 8
	// StatusCanceled: the request context was canceled (context.Canceled).
	StatusCanceled Status = 9
	// StatusMalformed: the request bytes did not decode (ErrMalformed).
	StatusMalformed Status = 10
	// StatusInternal: an unclassified server-side failure (ErrInternal).
	StatusInternal Status = 11
	// StatusNotFound: the fingerprint named no resident matrix
	// (store.ErrNotFound). Not retryable as-is — resending the same
	// reference finds the same nothing — but curable: the client's
	// 404-then-upload fallback PUTs the matrix and reissues the reference
	// once.
	StatusNotFound Status = 12
	// StatusJobNotFound: the job ID named no resident job record
	// (jobs.ErrNotFound) — it never existed, or its result aged out of the
	// TTL/byte-budgeted retention. Not retryable: the result is gone.
	StatusJobNotFound Status = 13
)

// maxStatus is the last defined status; decoders reject anything above it.
const maxStatus = StatusJobNotFound

// String implements fmt.Stringer for Status.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusInvalidMatrix:
		return "invalid-matrix"
	case StatusInvalidSketchSize:
		return "invalid-sketch-size"
	case StatusBadOptions:
		return "bad-options"
	case StatusNilMatrix:
		return "nil-matrix"
	case StatusPlanClosed:
		return "plan-closed"
	case StatusOverloaded:
		return "overloaded"
	case StatusClosed:
		return "closed"
	case StatusDeadlineExceeded:
		return "deadline-exceeded"
	case StatusCanceled:
		return "canceled"
	case StatusMalformed:
		return "malformed"
	case StatusInternal:
		return "internal"
	case StatusNotFound:
		return "not-found"
	case StatusJobNotFound:
		return "job-not-found"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Retryable reports whether a request that failed with this status may
// succeed if simply retried later. Only overload qualifies: invalid inputs
// stay invalid, and a closed server is draining for good.
func (s Status) Retryable() bool { return s == StatusOverloaded }

// StatusOf classifies an error from the service/core layers into its wire
// status. Unrecognised errors map to StatusInternal — the taxonomy is
// closed, so new failure modes degrade to a non-retryable 500, never to a
// silently wrong retry.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, store.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, jobs.ErrNotFound):
		return StatusJobNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		// The jobs layer's saturation signal rides the same retryable
		// status as admission-queue overload.
		return StatusOverloaded
	case errors.Is(err, service.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, service.ErrClosed):
		return StatusClosed
	case errors.Is(err, core.ErrNilMatrix):
		return StatusNilMatrix
	case errors.Is(err, core.ErrInvalidSketchSize):
		return StatusInvalidSketchSize
	case errors.Is(err, core.ErrInvalidMatrix):
		return StatusInvalidMatrix
	case errors.Is(err, core.ErrBadOptions):
		return StatusBadOptions
	case errors.Is(err, core.ErrPlanClosed):
		return StatusPlanClosed
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return StatusCanceled
	case errors.Is(err, ErrMalformed), errors.Is(err, ErrTooLarge):
		return StatusMalformed
	default:
		return StatusInternal
	}
}

// sentinel returns the error sentinel a non-OK status stands for.
func (s Status) sentinel() error {
	switch s {
	case StatusInvalidMatrix:
		return core.ErrInvalidMatrix
	case StatusInvalidSketchSize:
		return core.ErrInvalidSketchSize
	case StatusBadOptions:
		return core.ErrBadOptions
	case StatusNilMatrix:
		return core.ErrNilMatrix
	case StatusPlanClosed:
		return core.ErrPlanClosed
	case StatusOverloaded:
		return service.ErrOverloaded
	case StatusClosed:
		return service.ErrClosed
	case StatusDeadlineExceeded:
		return context.DeadlineExceeded
	case StatusCanceled:
		return context.Canceled
	case StatusMalformed:
		return ErrMalformed
	case StatusNotFound:
		return store.ErrNotFound
	case StatusJobNotFound:
		return jobs.ErrNotFound
	default:
		return ErrInternal
	}
}

// StatusError is the error a client surfaces for a non-OK response. It
// unwraps to the status's canonical sentinel, so
// errors.Is(err, service.ErrOverloaded) holds across the network exactly as
// it does in-process.
type StatusError struct {
	Code   Status
	Detail string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	if e.Detail == "" {
		return "wire: " + e.Code.String()
	}
	return "wire: " + e.Code.String() + ": " + e.Detail
}

// Unwrap exposes the canonical sentinel for errors.Is chains.
func (e *StatusError) Unwrap() error { return e.Code.sentinel() }

// Err converts a non-OK status (plus optional detail) back into an error;
// StatusOK yields nil.
func (s Status) Err(detail string) error {
	if s == StatusOK {
		return nil
	}
	return &StatusError{Code: s, Detail: detail}
}

// ---- frame I/O ----

func putU32(dst []byte, v uint32) {
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v >> 16)
	dst[3] = byte(v >> 24)
}

func getU32(src []byte) uint32 {
	return uint32(src[0]) | uint32(src[1])<<8 | uint32(src[2])<<16 | uint32(src[3])<<24
}

func putU64(dst []byte, v uint64) {
	dst[0] = byte(v)
	dst[1] = byte(v >> 8)
	dst[2] = byte(v >> 16)
	dst[3] = byte(v >> 24)
	dst[4] = byte(v >> 32)
	dst[5] = byte(v >> 40)
	dst[6] = byte(v >> 48)
	dst[7] = byte(v >> 56)
}

func getU64(src []byte) uint64 {
	return uint64(src[0]) | uint64(src[1])<<8 | uint64(src[2])<<16 |
		uint64(src[3])<<24 | uint64(src[4])<<32 | uint64(src[5])<<40 |
		uint64(src[6])<<48 | uint64(src[7])<<56
}

// AppendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice. A payload beyond MaxFramePayload cannot be
// expressed in the 32-bit length field and fails with ErrTooLarge, leaving
// dst unextended.
func AppendFrame(dst []byte, t MsgType, payload []byte) ([]byte, error) {
	if uint64(len(payload)) > MaxFramePayload {
		return dst, fmt.Errorf("%w: payload %d bytes exceeds the %d-byte frame limit", ErrTooLarge, len(payload), uint64(MaxFramePayload))
	}
	var hdr [HeaderSize]byte
	hdr[0], hdr[1], hdr[2] = 'S', 'K', 'W'
	hdr[3] = Version
	hdr[4] = byte(t)
	putU32(hdr[8:12], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// SplitFrame parses one frame from buf without copying: the returned
// payload aliases buf, and rest is whatever follows the frame (non-empty
// only in concatenated streams). maxPayload <= 0 selects DefaultMaxPayload.
func SplitFrame(buf []byte, maxPayload int) (t MsgType, payload, rest []byte, err error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(buf) < HeaderSize {
		return 0, nil, nil, fmt.Errorf("%w: %d-byte buffer shorter than the %d-byte header", ErrMalformed, len(buf), HeaderSize)
	}
	if buf[0] != 'S' || buf[1] != 'K' || buf[2] != 'W' {
		return 0, nil, nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, buf[:3])
	}
	if buf[3] != Version {
		return 0, nil, nil, fmt.Errorf("%w: unsupported version %d", ErrMalformed, buf[3])
	}
	if buf[5] != 0 || buf[6] != 0 || buf[7] != 0 {
		return 0, nil, nil, fmt.Errorf("%w: nonzero reserved header bytes", ErrMalformed)
	}
	n := int64(getU32(buf[8:12]))
	if n > int64(maxPayload) {
		return 0, nil, nil, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, n, maxPayload)
	}
	if int64(len(buf)-HeaderSize) < n {
		return 0, nil, nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrMalformed, len(buf)-HeaderSize, n)
	}
	end := HeaderSize + int(n)
	return MsgType(buf[4]), buf[HeaderSize:end], buf[end:], nil
}

// WriteMessage writes one frame to w. Like AppendFrame, a payload beyond
// MaxFramePayload fails with ErrTooLarge before anything is written.
func WriteMessage(w io.Writer, t MsgType, payload []byte) error {
	if uint64(len(payload)) > MaxFramePayload {
		return fmt.Errorf("%w: payload %d bytes exceeds the %d-byte frame limit", ErrTooLarge, len(payload), uint64(MaxFramePayload))
	}
	var hdr [HeaderSize]byte
	hdr[0], hdr[1], hdr[2] = 'S', 'K', 'W'
	hdr[3] = Version
	hdr[4] = byte(t)
	putU32(hdr[8:12], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one frame from r, allocating the payload. maxPayload
// <= 0 selects DefaultMaxPayload; a declared length beyond it fails with
// ErrTooLarge before any allocation.
func ReadMessage(r io.Reader, maxPayload int) (MsgType, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: truncated header", ErrMalformed)
		}
		return 0, nil, err
	}
	if hdr[0] != 'S' || hdr[1] != 'K' || hdr[2] != 'W' {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, hdr[:3])
	}
	if hdr[3] != Version {
		return 0, nil, fmt.Errorf("%w: unsupported version %d", ErrMalformed, hdr[3])
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, nil, fmt.Errorf("%w: nonzero reserved header bytes", ErrMalformed)
	}
	n := int64(getU32(hdr[8:12]))
	if n > int64(maxPayload) {
		return 0, nil, fmt.Errorf("%w: payload %d > limit %d", ErrTooLarge, n, maxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrMalformed, err)
	}
	return MsgType(hdr[4]), payload, nil
}
