package wire

import (
	"fmt"
	"strconv"
	"strings"

	"sketchsp/internal/sparse"
)

// By-reference messages (version 3): the content-addressed leg of the
// protocol. A client uploads a matrix once (MsgMatrixPut), then asks for
// sketches by the 32-byte fingerprint (a by-reference MsgSketchRequest
// item, sketch.go) — repeat traffic drops from O(nnz(A)) to O(1) bytes per
// request — and streams updates as sparse deltas (MsgMatrixDelta) that the
// server folds into stored state by linearity, Â(A+ΔA) = Â(A) + S·ΔA.
//
// Payload layouts:
//
//	MsgMatrixPut:    CSC payload (exactly; answered with MsgMatrixInfo)
//
//	MsgMatrixInfo:   u8 status
//	                 status == StatusOK:  u64 m | u64 n | u64 nnz |
//	                                      u64 hash | i64 bytes | u8 created
//	                 status != StatusOK:  u32 detailLen | detail bytes
//
//	MsgMatrixDelta:  u64 m | u64 n | u64 nnz | u64 hash (the BASE matrix's
//	                 fingerprint) | CSC payload of ΔA (same shape as the
//	                 base; answered with MsgMatrixInfo for A+ΔA)

// MatrixInfo is the decoded form of a MsgMatrixInfo payload: the outcome of
// a matrix put or delta. A non-OK Status carries only Detail; StatusOK
// carries the stored matrix's identity, footprint, and whether the
// operation inserted it (Created=false: already resident).
type MatrixInfo struct {
	Status  Status
	Detail  string
	Fp      sparse.Fingerprint
	Bytes   int64
	Created bool
}

// Err converts the outcome into an error (nil for StatusOK), unwrapping to
// the canonical sentinel of the status.
func (r *MatrixInfo) Err() error { return r.Status.Err(r.Detail) }

// MatrixDelta is the decoded form of a MsgMatrixDelta payload: a sparse
// update ΔA addressed to the stored matrix with fingerprint Fp.
type MatrixDelta struct {
	Fp    sparse.Fingerprint
	Delta *sparse.CSC
}

// appendFingerprint appends fp's wire form to dst.
func appendFingerprint(dst []byte, fp sparse.Fingerprint) []byte {
	dst = appendU64(dst, uint64(int64(fp.M)))
	dst = appendU64(dst, uint64(int64(fp.N)))
	dst = appendU64(dst, uint64(int64(fp.NNZ)))
	return appendU64(dst, fp.Hash)
}

// decodeFingerprint parses fingerprintWireSize bytes (caller guarantees the
// length) and rejects out-of-domain dimensions, mirroring the CSC decoder's
// guards so a reference can never name a shape an upload could not have.
func decodeFingerprint(payload []byte) (sparse.Fingerprint, error) {
	m := getU64(payload[0:])
	n := getU64(payload[8:])
	nnz := getU64(payload[16:])
	hash := getU64(payload[24:])
	if m > MaxDim || n > MaxDim {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint dims %dx%d exceed MaxDim", ErrMalformed, m, n)
	}
	// The same ceiling as every other dimension: a fingerprint naming more
	// stored entries than MaxDim could never match a decodable upload.
	if nnz > MaxDim {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint nnz %d out of domain", ErrMalformed, nnz)
	}
	return sparse.Fingerprint{M: int(m), N: int(n), NNZ: int(nnz), Hash: hash}, nil
}

// AppendMatrixPut appends a matrix-put payload (the CSC payload verbatim).
func AppendMatrixPut(dst []byte, a *sparse.CSC) []byte {
	return AppendCSC(dst, a)
}

// DecodeMatrixPut decodes a matrix-put payload into a fresh matrix.
func DecodeMatrixPut(payload []byte) (*sparse.CSC, error) {
	return DecodeCSC(payload)
}

// AppendMatrixInfo appends r's matrix-info payload to dst.
func AppendMatrixInfo(dst []byte, r *MatrixInfo) []byte {
	dst = append(dst, byte(r.Status))
	if r.Status != StatusOK {
		dst = appendU32(dst, uint32(len(r.Detail)))
		return append(dst, r.Detail...)
	}
	dst = appendFingerprint(dst, r.Fp)
	dst = appendU64(dst, uint64(r.Bytes))
	if r.Created {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeMatrixInfo decodes a matrix-info payload.
func DecodeMatrixInfo(payload []byte) (*MatrixInfo, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("%w: empty matrix-info payload", ErrMalformed)
	}
	st := Status(payload[0])
	if st > maxStatus {
		return nil, fmt.Errorf("%w: unknown status %d", ErrMalformed, payload[0])
	}
	r := &MatrixInfo{Status: st}
	if st != StatusOK {
		if len(payload) < 5 {
			return nil, fmt.Errorf("%w: truncated matrix-info error", ErrMalformed)
		}
		n := uint64(getU32(payload[1:5]))
		if uint64(len(payload)-5) != n {
			return nil, fmt.Errorf("%w: matrix-info detail %d bytes, want %d", ErrMalformed, len(payload)-5, n)
		}
		r.Detail = string(payload[5:])
		return r, nil
	}
	const okSize = 1 + fingerprintWireSize + 8 + 1
	if len(payload) != okSize {
		return nil, fmt.Errorf("%w: matrix-info payload %d bytes, want %d", ErrMalformed, len(payload), okSize)
	}
	fp, err := decodeFingerprint(payload[1:])
	if err != nil {
		return nil, err
	}
	bytes := int64(getU64(payload[1+fingerprintWireSize:]))
	if bytes < 0 {
		return nil, fmt.Errorf("%w: negative matrix-info bytes", ErrMalformed)
	}
	switch payload[okSize-1] {
	case 0:
	case 1:
		r.Created = true
	default:
		return nil, fmt.Errorf("%w: matrix-info created flag %d", ErrMalformed, payload[okSize-1])
	}
	r.Fp = fp
	r.Bytes = bytes
	return r, nil
}

// AppendMatrixDelta appends r's matrix-delta payload to dst.
func AppendMatrixDelta(dst []byte, r *MatrixDelta) []byte {
	dst = appendFingerprint(dst, r.Fp)
	return AppendCSC(dst, r.Delta)
}

// DecodeMatrixDelta decodes a matrix-delta payload. The delta matrix is
// freshly allocated — deltas are applied asynchronously to stored state, so
// they must never alias pooled request scratch.
func DecodeMatrixDelta(payload []byte) (*MatrixDelta, error) {
	if len(payload) < fingerprintWireSize {
		return nil, fmt.Errorf("%w: matrix-delta payload %d bytes, want >= %d", ErrMalformed, len(payload), fingerprintWireSize)
	}
	fp, err := decodeFingerprint(payload)
	if err != nil {
		return nil, err
	}
	delta, err := DecodeCSC(payload[fingerprintWireSize:])
	if err != nil {
		return nil, err
	}
	if delta.M != fp.M || delta.N != fp.N {
		return nil, fmt.Errorf("%w: delta shape %dx%d does not match base fingerprint %dx%d",
			ErrMalformed, delta.M, delta.N, fp.M, fp.N)
	}
	return &MatrixDelta{Fp: fp, Delta: delta}, nil
}

// EncodeMatrixPutFrame returns a complete matrix-put frame.
func EncodeMatrixPutFrame(a *sparse.CSC) ([]byte, error) {
	payload := AppendMatrixPut(make([]byte, 0, cscPayloadSize(a)), a)
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), MsgMatrixPut, payload)
}

// EncodeMatrixDeltaFrame returns a complete matrix-delta frame.
func EncodeMatrixDeltaFrame(r *MatrixDelta) ([]byte, error) {
	payload := AppendMatrixDelta(make([]byte, 0, fingerprintWireSize+cscPayloadSize(r.Delta)), r)
	return AppendFrame(make([]byte, 0, HeaderSize+len(payload)), MsgMatrixDelta, payload)
}

// FormatFingerprint renders fp for a URL path segment:
// "m-n-nnz-hash16hex" (e.g. "4096-512-81920-9f0c…"). ParseFingerprint is
// the strict inverse; the PATCH handler cross-checks the path fingerprint
// against the frame's.
func FormatFingerprint(fp sparse.Fingerprint) string {
	return fmt.Sprintf("%d-%d-%d-%016x", fp.M, fp.N, fp.NNZ, fp.Hash)
}

// ParseFingerprint parses FormatFingerprint's form. Rejections are
// ErrMalformed, like every other decoder in the package.
func ParseFingerprint(s string) (sparse.Fingerprint, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 4 {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: want m-n-nnz-hash", ErrMalformed, s)
	}
	m, err1 := strconv.ParseInt(parts[0], 10, 64)
	n, err2 := strconv.ParseInt(parts[1], 10, 64)
	nnz, err3 := strconv.ParseInt(parts[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: bad integer field", ErrMalformed, s)
	}
	if len(parts[3]) != 16 {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: hash must be 16 hex digits", ErrMalformed, s)
	}
	hash, err := strconv.ParseUint(parts[3], 16, 64)
	if err != nil {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: bad hash", ErrMalformed, s)
	}
	if m < 0 || m > MaxDim || n < 0 || n > MaxDim || nnz < 0 {
		return sparse.Fingerprint{}, fmt.Errorf("%w: fingerprint %q: dims out of domain", ErrMalformed, s)
	}
	return sparse.Fingerprint{M: int(m), N: int(n), NNZ: int(nnz), Hash: hash}, nil
}
