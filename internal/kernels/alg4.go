package kernels

import (
	"fmt"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// Kernel4 is Algorithm 4: compute-kernel variant jki with on-the-fly random
// number generation over one blocked-CSR slab.
//
// It updates Âsub += S[i0:i0+d1, :]·Asub in place, where Âsub is the dense
// d1×n1 view ahat and slab is the m×n1 CSR block (one vertical slab of the
// BlockedCSR structure). blockRow identifies the block-row offset of Âsub.
//
// The generated column of S is reused across the whole sparse row
// (a rank-1 update), so only rows with at least one nonzero trigger
// generation: the sample count drops from d·nnz to at most d·m·⌈n/b_n⌉
// (§III-B), at the price of sparsity-dependent access to the columns of
// Âsub.
//
// Returns the number of random samples generated.
func Kernel4(ahat *dense.Matrix, slab *sparse.CSR, blockRow uint64, s *rng.Sampler, v []float64, clk *SampleClock) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if slab.N != n1 {
		panic(fmt.Sprintf("kernels: Kernel4 Âsub cols %d != slab cols %d", n1, slab.N))
	}
	if len(v) < d1 {
		panic(fmt.Sprintf("kernels: Kernel4 scratch len %d < d1=%d", len(v), d1))
	}
	v = v[:d1]
	var generated int64
	if s.Dist() == rng.Rademacher {
		// Fused ±1 path: one bit per entry, the generated words reused
		// across the whole sparse row exactly like v would be.
		for j := 0; j < slab.M; j++ {
			cols, vals := slab.RowView(j)
			if len(cols) == 0 {
				continue
			}
			clk.start()
			s.SetState(blockRow, uint64(j))
			w := s.RawWords(d1)
			clk.stop()
			generated += int64(d1)
			for t, k := range cols {
				axpySign(vals[t], w, ahat.Col(k))
			}
		}
		return generated
	}
	for j := 0; j < slab.M; j++ {
		cols, vals := slab.RowView(j)
		if len(cols) == 0 {
			continue
		}
		clk.start()
		s.SetState(blockRow, uint64(j))
		s.Fill(v)
		clk.stop()
		generated += int64(d1)
		for t, k := range cols {
			axpy(vals[t], v, ahat.Col(k))
		}
	}
	return generated
}

// Kernel4Pregen is the "pre-generate S in memory" variant of Figure 4: the
// same jki loop structure as Kernel4, but columns of S are read from a
// materialised d1×m column-major matrix instead of being generated. Used to
// demonstrate that regeneration beats re-reading once memory traffic
// dominates.
func Kernel4Pregen(ahat *dense.Matrix, slab *sparse.CSR, sblock *dense.Matrix) {
	d1, n1 := ahat.Rows, ahat.Cols
	if slab.N != n1 {
		panic(fmt.Sprintf("kernels: Kernel4Pregen Âsub cols %d != slab cols %d", n1, slab.N))
	}
	if sblock.Rows != d1 || sblock.Cols != slab.M {
		panic(fmt.Sprintf("kernels: Kernel4Pregen S block %dx%d want %dx%d",
			sblock.Rows, sblock.Cols, d1, slab.M))
	}
	for j := 0; j < slab.M; j++ {
		cols, vals := slab.RowView(j)
		if len(cols) == 0 {
			continue
		}
		sj := sblock.Col(j)
		for t, k := range cols {
			axpy(vals[t], sj, ahat.Col(k))
		}
	}
}

// Kernel3Pregen is the pre-generated-S counterpart of Kernel3 (kji over a
// CSC slab, reading S columns from memory).
func Kernel3Pregen(ahat *dense.Matrix, asub *sparse.CSC, sblock *dense.Matrix) {
	d1, n1 := ahat.Rows, ahat.Cols
	if asub.N != n1 {
		panic(fmt.Sprintf("kernels: Kernel3Pregen Âsub cols %d != Asub cols %d", n1, asub.N))
	}
	if sblock.Rows != d1 || sblock.Cols != asub.M {
		panic(fmt.Sprintf("kernels: Kernel3Pregen S block %dx%d want %dx%d",
			sblock.Rows, sblock.Cols, d1, asub.M))
	}
	for k := 0; k < n1; k++ {
		rows, vals := asub.ColView(k)
		if len(rows) == 0 {
			continue
		}
		col := ahat.Col(k)
		for t, j := range rows {
			axpy(vals[t], sblock.Col(j), col)
		}
	}
}
