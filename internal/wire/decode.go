package wire

import (
	"fmt"
	"math"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// MaxDim bounds any declared matrix dimension (2^40 rows or columns). The
// arrays a decoder allocates are all bounded by the payload length itself,
// but the CSC row count m is not length-bound (a 10⁹×3 matrix with five
// nonzeros is a legitimately tiny message), so it gets an explicit ceiling.
const MaxDim = 1 << 40

// Decoding is *total* and *strict*: every length is cross-checked against
// the actual payload size before anything is allocated (a corrupted count
// cannot demand memory the bytes don't back), every enum is checked against
// its domain (a corrupted Options can never reach rng.NewSource, which
// panics on unknown kinds), and the embedded CSC is fully re-validated
// (sorted unique in-range row indices) so the kernels downstream never see
// a structurally broken matrix. Payloads must also be *exact*: trailing
// garbage is rejected, which makes decode(encode(x)) == x the only fixed
// point and lets the fuzzer compare re-encoded bytes directly.

// DecodeCSC decodes a CSC payload into a freshly allocated matrix.
func DecodeCSC(payload []byte) (*sparse.CSC, error) {
	a := new(sparse.CSC)
	if err := DecodeCSCInto(a, payload); err != nil {
		return nil, err
	}
	return a, nil
}

// DecodeCSCInto decodes a CSC payload into dst, reusing the capacity of
// dst's slices — the hot-path form the server's request scratch pool uses.
func DecodeCSCInto(dst *sparse.CSC, payload []byte) error {
	size, err := cscSize(payload)
	if err != nil {
		return err
	}
	if size != len(payload) {
		return fmt.Errorf("%w: CSC payload %d bytes, want %d", ErrMalformed, len(payload), size)
	}
	m := getU64(payload[0:])
	n := getU64(payload[8:])
	nnz := getU64(payload[16:])
	dst.M, dst.N = int(m), int(n)
	dst.ColPtr = intSliceInto(dst.ColPtr, int(n)+1)
	dst.RowIdx = intSliceInto(dst.RowIdx, int(nnz))
	dst.Val = f64SliceInto(dst.Val, int(nnz))
	off := 24
	for i := range dst.ColPtr {
		dst.ColPtr[i] = int(int64(getU64(payload[off:])))
		off += 8
	}
	for i := range dst.RowIdx {
		dst.RowIdx[i] = int(int64(getU64(payload[off:])))
		off += 8
	}
	for i := range dst.Val {
		dst.Val[i] = math.Float64frombits(getU64(payload[off:]))
		off += 8
	}
	if err := dst.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return nil
}

// DecodeDense decodes a dense payload into a freshly allocated matrix.
func DecodeDense(payload []byte) (*dense.Matrix, error) {
	m := new(dense.Matrix)
	if err := DecodeDenseInto(m, payload); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeDenseInto decodes a dense payload into dst, reusing Data capacity.
// The decoded matrix always has a tight stride.
func DecodeDenseInto(dst *dense.Matrix, payload []byte) error {
	size, err := denseSize(payload)
	if err != nil {
		return err
	}
	if size != len(payload) {
		return fmt.Errorf("%w: dense payload %d bytes, want %d", ErrMalformed, len(payload), size)
	}
	rows := getU64(payload[0:])
	cols := getU64(payload[8:])
	dst.Rows, dst.Cols = int(rows), int(cols)
	dst.Stride = int(rows)
	dst.Data = f64SliceInto(dst.Data, int(rows)*int(cols))
	off := 16
	for i := range dst.Data {
		dst.Data[i] = math.Float64frombits(getU64(payload[off:]))
		off += 8
	}
	return nil
}

// cscSize reads the (m, n, nnz) head of the CSC payload that starts b and
// returns the payload's full encoded length, rejecting any head the bytes
// of b cannot back. Sketch request items embed their CSC without a length
// prefix; this is how the item decoder finds where the matrix ends.
func cscSize(b []byte) (int, error) {
	if len(b) < 24 {
		return 0, fmt.Errorf("%w: CSC payload %d bytes, want >= 24", ErrMalformed, len(b))
	}
	m := getU64(b[0:])
	n := getU64(b[8:])
	nnz := getU64(b[16:])
	rem := uint64(len(b) - 24)
	if m > MaxDim || n > MaxDim {
		return 0, fmt.Errorf("%w: CSC dims %dx%d exceed MaxDim", ErrMalformed, m, n)
	}
	// Every ColPtr entry costs 8 bytes and every stored entry 16, so any
	// consistent (n, nnz) is bounded by the payload before we multiply.
	if n+1 > rem/8 || nnz > rem/16 {
		return 0, fmt.Errorf("%w: CSC n=%d nnz=%d inconsistent with %d payload bytes", ErrMalformed, n, nnz, rem)
	}
	need := 8*(n+1) + 16*nnz
	if need > rem {
		return 0, fmt.Errorf("%w: CSC payload %d bytes, want %d", ErrMalformed, rem, need)
	}
	return 24 + int(need), nil
}

// denseSize is cscSize for a dense payload: the full encoded length of the
// rows×cols matrix that starts b.
func denseSize(b []byte) (int, error) {
	if len(b) < 16 {
		return 0, fmt.Errorf("%w: dense payload %d bytes, want >= 16", ErrMalformed, len(b))
	}
	rows := getU64(b[0:])
	cols := getU64(b[8:])
	rem := uint64(len(b) - 16)
	if rows > MaxDim || cols > MaxDim {
		return 0, fmt.Errorf("%w: dense dims %dx%d exceed MaxDim", ErrMalformed, rows, cols)
	}
	elems := rem / 8
	if rows != 0 && cols != 0 && (rows > elems || cols > elems/rows) {
		return 0, fmt.Errorf("%w: dense %dx%d inconsistent with %d payload bytes", ErrMalformed, rows, cols, rem)
	}
	need := rows * cols * 8
	if need > rem {
		return 0, fmt.Errorf("%w: dense payload %d bytes, want %d", ErrMalformed, rem, need)
	}
	return 16 + int(need), nil
}

// decodeSketchOpts parses an optsWireSize core.Options block and returns
// the sketch-item bits of its flag byte. itemFlags is the set of item bits
// the caller's message defines (the solve request defines none); any other
// set bit is rejected. The caller guarantees len(payload) >= optsWireSize.
func decodeSketchOpts(payload []byte, itemFlags byte) (core.Options, byte, error) {
	var opts core.Options
	opts.Seed = getU64(payload[0:])
	alg := int64(getU64(payload[8:]))
	dist := int64(getU64(payload[16:]))
	src := int64(getU64(payload[24:]))
	blockD := int64(getU64(payload[32:]))
	blockN := int64(getU64(payload[40:]))
	workers := int64(getU64(payload[48:]))
	sched := int64(getU64(payload[56:]))
	sparsity := int64(getU64(payload[64:]))
	rngCost := math.Float64frombits(getU64(payload[72:]))
	flags := payload[80]

	// Enum domains. These guards are load-bearing, not cosmetic: an
	// out-of-domain Source or Dist would panic inside rng.NewSource /
	// the sampler's fill switch, which a server facing untrusted bytes
	// cannot afford. The Dist ceiling is rng.CountSketch, the last member
	// of the sparse sketch family — an unknown enum value is rejected
	// here, never silently mapped to a default distribution.
	switch {
	case alg < int64(core.AlgAuto) || alg > int64(core.Alg4):
		return opts, 0, fmt.Errorf("%w: algorithm %d out of domain", ErrMalformed, alg)
	case dist < int64(rng.Uniform11) || dist > int64(rng.CountSketch):
		return opts, 0, fmt.Errorf("%w: distribution %d out of domain", ErrMalformed, dist)
	case src < int64(rng.SourceBatchXoshiro) || src > int64(rng.SourcePhilox):
		return opts, 0, fmt.Errorf("%w: rng source %d out of domain", ErrMalformed, src)
	case sched < int64(core.SchedWeighted) || sched > int64(core.SchedUniform):
		return opts, 0, fmt.Errorf("%w: scheduler %d out of domain", ErrMalformed, sched)
	case blockD < 0 || blockD > MaxDim || blockN < 0 || blockN > MaxDim:
		return opts, 0, fmt.Errorf("%w: block sizes (%d, %d) out of domain", ErrMalformed, blockD, blockN)
	case workers < 0 || workers > 1<<20:
		return opts, 0, fmt.Errorf("%w: workers %d out of domain", ErrMalformed, workers)
	case sparsity < 0 || sparsity > MaxDim:
		return opts, 0, fmt.Errorf("%w: sparsity %d out of domain", ErrMalformed, sparsity)
	case math.IsNaN(rngCost) || math.IsInf(rngCost, 0) || rngCost < 0:
		return opts, 0, fmt.Errorf("%w: non-finite or negative RNGCost", ErrMalformed)
	case flags&^(2|itemFlags) != 0:
		return opts, 0, fmt.Errorf("%w: unknown request flags %#x", ErrMalformed, flags)
	}
	opts.Algorithm = core.Algorithm(alg)
	opts.Dist = rng.Distribution(dist)
	opts.Source = rng.SourceKind(src)
	opts.BlockD = int(blockD)
	opts.BlockN = int(blockN)
	opts.Workers = int(workers)
	opts.Sched = core.Scheduler(sched)
	opts.Sparsity = int(sparsity)
	opts.RNGCost = rngCost
	opts.TuneBlockN = flags&2 != 0
	return opts, flags & itemFlags, nil
}

// PeekStatus reads a response payload's status byte without decoding the
// rest. The client's retry loop classifies responses with it so a
// successful response is not fully decoded twice (the dense Â dominates
// decode cost; the status is one byte).
func PeekStatus(payload []byte) (Status, error) {
	if len(payload) < 1 {
		return 0, fmt.Errorf("%w: empty response payload", ErrMalformed)
	}
	st := Status(payload[0])
	if st > maxStatus {
		return 0, fmt.Errorf("%w: unknown status %d", ErrMalformed, payload[0])
	}
	return st, nil
}

func intSliceInto(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int, n)
}

func f64SliceInto(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}
