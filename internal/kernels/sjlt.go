package kernels

import (
	"fmt"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// Sparse-family (SJLT/CountSketch) compute kernels. They mirror the loop
// nesting of Algorithms 3 and 4, but a column of S now has exactly s
// nonzeros (positions strictly ascending in [0, d)) regenerated by
// rng.FillSJLTColumn from the reserved per-column checkpoint, so the
// per-nonzero-of-A work drops from d1 axpy lanes to at most s scattered
// adds. blockRow is the block-row offset i0 of Âsub within Â, used only to
// filter the global positions into [i0, i0+d1) — unlike the dense kernels
// the draw itself is blocking-independent, which is what makes SJLT
// sketches bit-identical across any BlockD as well as any scheduler,
// worker count, or shard split.
//
// Within one output element Â[p, k], contributions accumulate in ascending
// sparse-row order j in both the CSC (3) and CSR (4) variants, and a column
// j touches each position at most once — so the two kernels produce
// bit-identical sums, and repartitioning cannot reorder them.

// sjltRange returns the half-open index range [lo, hi) of pos whose
// entries fall in the block-row window [i0, i0+d1). pos is strictly
// ascending, s is small: a linear scan beats binary search here.
func sjltRange(pos []int, i0, d1 int) (lo, hi int) {
	end := i0 + d1
	for lo < len(pos) && pos[lo] < i0 {
		lo++
	}
	hi = lo
	for hi < len(pos) && pos[hi] < end {
		hi++
	}
	return lo, hi
}

// Kernel3SJLT is the sparse-family analogue of Kernel3: kji over a CSC
// column slab, regenerating the s-sparse column of S for every stored
// entry of A. d is the full sketch dimension, s the per-column nonzero
// count, scale the nonzero magnitude (1/√s); pos and val are caller
// scratch of length ≥ s. Returns the number of raw words drawn (s per
// regeneration), the sparse family's sample count.
func Kernel3SJLT(ahat *dense.Matrix, asub *sparse.CSC, blockRow uint64, sp *rng.Sampler, d, s int, scale float64, pos []int, val []float64, clk *SampleClock) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if asub.N != n1 {
		panic(fmt.Sprintf("kernels: Kernel3SJLT Âsub cols %d != Asub cols %d", n1, asub.N))
	}
	if len(pos) < s || len(val) < s {
		panic(fmt.Sprintf("kernels: Kernel3SJLT scratch len (%d,%d) < s=%d", len(pos), len(val), s))
	}
	i0 := int(blockRow)
	pos, val = pos[:s], val[:s]
	var generated int64
	for k := 0; k < n1; k++ {
		rows, vals := asub.ColView(k)
		if len(rows) == 0 {
			continue
		}
		col := ahat.Col(k)
		for t, j := range rows {
			clk.start()
			sp.FillSJLTColumn(uint64(j), d, s, scale, pos, val)
			clk.stop()
			generated += int64(s)
			lo, hi := sjltRange(pos, i0, d1)
			for b := lo; b < hi; b++ {
				col[pos[b]-i0] += val[b] * vals[t]
			}
		}
	}
	return generated
}

// Kernel4SJLT is the sparse-family analogue of Kernel4: jki over one
// blocked-CSR slab, regenerating the s-sparse column of S once per
// nonempty sparse row and reusing it across the row's nonzeros.
func Kernel4SJLT(ahat *dense.Matrix, slab *sparse.CSR, blockRow uint64, sp *rng.Sampler, d, s int, scale float64, pos []int, val []float64, clk *SampleClock) int64 {
	d1, n1 := ahat.Rows, ahat.Cols
	if slab.N != n1 {
		panic(fmt.Sprintf("kernels: Kernel4SJLT Âsub cols %d != slab cols %d", n1, slab.N))
	}
	if len(pos) < s || len(val) < s {
		panic(fmt.Sprintf("kernels: Kernel4SJLT scratch len (%d,%d) < s=%d", len(pos), len(val), s))
	}
	i0 := int(blockRow)
	pos, val = pos[:s], val[:s]
	var generated int64
	for j := 0; j < slab.M; j++ {
		cols, vals := slab.RowView(j)
		if len(cols) == 0 {
			continue
		}
		clk.start()
		sp.FillSJLTColumn(uint64(j), d, s, scale, pos, val)
		clk.stop()
		generated += int64(s)
		lo, hi := sjltRange(pos, i0, d1)
		if lo == hi {
			continue
		}
		for t, k := range cols {
			a := vals[t]
			col := ahat.Col(k)
			for b := lo; b < hi; b++ {
				col[pos[b]-i0] += val[b] * a
			}
		}
	}
	return generated
}
