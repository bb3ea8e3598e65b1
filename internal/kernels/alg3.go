package kernels

import (
	"fmt"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// Kernel3 is Algorithm 3: compute-kernel variant kji with on-the-fly random
// number generation over a CSC column slab.
//
// It updates Âsub += S[i0:i0+d1, :]·Asub in place, where Âsub is the dense
// d1×n1 view ahat, Asub is the m×n1 CSC slab asub, and blockRow identifies
// the block-row offset i0 of Âsub within Â (the r of the pseudocode's
// g.set_state(r, j)). v is a caller-provided scratch vector of length d1
// that is repeatedly overwritten with generated entries of S; clk times a
// sample of those generation steps (see SampleClock), as in every kernel.
//
// For every nonzero A[j,k] the kernel regenerates the d1 entries of S's
// column j at this block row — strided access to all three operands, no
// reuse of random numbers (Alg 3 always generates d·nnz(A) samples, §III-B).
//
// Returns the number of random samples generated.
func Kernel3(ahat *dense.Matrix, asub *sparse.CSC, blockRow uint64, s *rng.Sampler, v []float64, clk *SampleClock) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if asub.N != n1 {
		panic(fmt.Sprintf("kernels: Kernel3 Âsub cols %d != Asub cols %d", n1, asub.N))
	}
	if len(v) < d1 {
		panic(fmt.Sprintf("kernels: Kernel3 scratch len %d < d1=%d", len(v), d1))
	}
	v = v[:d1]
	var generated int64
	if s.Dist() == rng.Rademacher {
		// Fused ±1 path: consume sign bits straight from the generator,
		// one bit per entry of S, no multiply (the paper's low-width ±1
		// specialisation).
		for k := 0; k < n1; k++ {
			rows, vals := asub.ColView(k)
			if len(rows) == 0 {
				continue
			}
			col := ahat.Col(k)
			for t, j := range rows {
				clk.start()
				s.SetState(blockRow, uint64(j))
				w := s.RawWords(d1)
				clk.stop()
				generated += int64(d1)
				axpySign(vals[t], w, col)
			}
		}
		return generated
	}
	for k := 0; k < n1; k++ {
		rows, vals := asub.ColView(k)
		if len(rows) == 0 {
			continue
		}
		col := ahat.Col(k)
		for t, j := range rows {
			clk.start()
			s.SetState(blockRow, uint64(j))
			s.Fill(v)
			clk.stop()
			generated += int64(d1)
			axpy(vals[t], v, col)
		}
	}
	return generated
}
