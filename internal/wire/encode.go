package wire

import (
	"math"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
	"sketchsp/internal/sparse"
)

// cscPayloadSize returns the encoded size of a's CSC payload.
func cscPayloadSize(a *sparse.CSC) int {
	return 24 + 8*(a.N+1) + 16*len(a.Val)
}

// AppendCSC appends a's CSC payload to dst. The matrix must be
// structurally valid (DecodeCSC* re-validates on the way in).
func AppendCSC(dst []byte, a *sparse.CSC) []byte {
	dst = appendU64(dst, uint64(a.M))
	dst = appendU64(dst, uint64(a.N))
	dst = appendU64(dst, uint64(len(a.Val)))
	for _, p := range a.ColPtr {
		dst = appendU64(dst, uint64(p))
	}
	for _, r := range a.RowIdx {
		dst = appendU64(dst, uint64(r))
	}
	for _, v := range a.Val {
		dst = appendU64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendDense appends m's dense payload to dst: dims then the column-major
// values. Views with a loose stride encode identically to their tight copy.
func AppendDense(dst []byte, m *dense.Matrix) []byte {
	dst = appendU64(dst, uint64(m.Rows))
	dst = appendU64(dst, uint64(m.Cols))
	for j := 0; j < m.Cols; j++ {
		for _, v := range m.Col(j) {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// requestFixedSize is the fixed-width head of a sketch request item
// before its optional placement and its matrix: d, then the options block.
const requestFixedSize = 8 + optsWireSize

// optsWireSize is the encoded size of a core.Options block: seed, 8 option
// integers, rngCost, flag byte. Shared by the sketch requests (after their
// leading d) and the solve request (which derives d from gamma instead).
const optsWireSize = 8 + 8*8 + 8 + 1

// appendSketchOpts appends the core.Options block shared by every request
// payload. itemFlags are the sketch-item bits (flagByRef, flagPlaced)
// carried in the block's flag byte; the solve request passes 0.
func appendSketchOpts(dst []byte, opts core.Options, itemFlags byte) []byte {
	dst = appendU64(dst, opts.Seed)
	dst = appendU64(dst, uint64(int64(opts.Algorithm)))
	dst = appendU64(dst, uint64(int64(opts.Dist)))
	dst = appendU64(dst, uint64(int64(opts.Source)))
	dst = appendU64(dst, uint64(int64(opts.BlockD)))
	dst = appendU64(dst, uint64(int64(opts.BlockN)))
	dst = appendU64(dst, uint64(int64(opts.Workers)))
	dst = appendU64(dst, uint64(int64(opts.Sched)))
	dst = appendU64(dst, uint64(int64(opts.Sparsity)))
	dst = appendU64(dst, math.Float64bits(opts.RNGCost))
	flags := itemFlags
	if opts.Timed {
		flags |= 1
	}
	if opts.TuneBlockN {
		flags |= 2
	}
	return append(dst, flags)
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
