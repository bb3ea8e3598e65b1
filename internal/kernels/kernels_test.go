package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

func randCSC(r *rand.Rand, m, n, nnz int) *sparse.CSC {
	coo := sparse.NewCOO(m, n, nnz)
	for k := 0; k < nnz; k++ {
		coo.Append(r.Intn(m), r.Intn(n), r.NormFloat64())
	}
	return coo.ToCSC()
}

func randDense(r *rand.Rand, rows, cols int) *dense.Matrix {
	m := dense.NewMatrix(rows, cols)
	for k := range m.Data {
		m.Data[k] = r.NormFloat64()
	}
	return m
}

// naiveMul is the oracle: G = L·R elementwise.
func naiveMul(l *dense.Matrix, rc *sparse.CSC) *dense.Matrix {
	g := dense.NewMatrix(l.Rows, rc.N)
	rd := rc.ToDense()
	dense.Gemm(1, l, rd, 0, g)
	return g
}

func TestAllLoopOrdersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		d1, m1, n1 := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		l := randDense(r, d1, m1)
		rc := randCSC(r, m1, n1, r.Intn(40))
		rr := rc.ToCSR()
		want := naiveMul(l, rc)
		for _, order := range AllLoopOrders() {
			g := dense.NewMatrix(d1, n1)
			MultiplyLoopOrder(order, l, rc, rr, g)
			if g.MaxAbsDiff(want) > 1e-10 {
				t.Fatalf("trial %d: order %v disagrees with oracle by %g",
					trial, order, g.MaxAbsDiff(want))
			}
		}
	}
}

func TestLoopOrderAccumulates(t *testing.T) {
	// MultiplyLoopOrder adds into G rather than overwriting.
	r := rand.New(rand.NewSource(2))
	l := randDense(r, 4, 5)
	rc := randCSC(r, 5, 3, 8)
	rr := rc.ToCSR()
	g := dense.NewMatrix(4, 3)
	g.Fill(1)
	MultiplyLoopOrder(OrderKJI, l, rc, rr, g)
	want := naiveMul(l, rc)
	for j := 0; j < 3; j++ {
		for i := 0; i < 4; i++ {
			if diff := g.At(i, j) - want.At(i, j) - 1; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("accumulation broken at (%d,%d)", i, j)
			}
		}
	}
}

func TestLoopOrderStrings(t *testing.T) {
	names := map[LoopOrder]string{
		OrderIJK: "ijk", OrderIKJ: "ikj", OrderKIJ: "kij",
		OrderJIK: "jik", OrderJKI: "jki", OrderKJI: "kji",
	}
	for o, want := range names {
		if o.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(o), o.String(), want)
		}
	}
}

// materialize builds the S block the sampler would generate at blockRow for
// columns 0..m-1, each of height d1.
func materialize(src rng.Source, dist rng.Distribution, blockRow uint64, d1, m int) *dense.Matrix {
	s := rng.NewSampler(src, dist)
	out := dense.NewMatrix(d1, m)
	v := make([]float64, d1)
	for j := 0; j < m; j++ {
		s.SetState(blockRow, uint64(j))
		s.Fill(v)
		copy(out.Col(j), v)
	}
	return out
}

func TestKernel3MatchesExplicitProduct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		d1, m, n1 := 1+r.Intn(20), 1+r.Intn(30), 1+r.Intn(10)
		a := randCSC(r, m, n1, r.Intn(60))
		sm := materialize(rng.NewBatchXoshiro(7), rng.Uniform11, 100, d1, m)

		ahat := dense.NewMatrix(d1, n1)
		samp := rng.NewSampler(rng.NewBatchXoshiro(7), rng.Uniform11)
		v := make([]float64, d1)
		gen := Kernel3(ahat, a, 100, samp, v, new(SampleClock))
		if gen != int64(d1)*int64(a.NNZ()) {
			t.Fatalf("Kernel3 generated %d samples, want d1·nnz = %d", gen, d1*a.NNZ())
		}
		want := naiveMul(sm, a)
		if ahat.MaxAbsDiff(want) > 1e-10 {
			t.Fatalf("trial %d: Kernel3 off by %g", trial, ahat.MaxAbsDiff(want))
		}
	}
}

func TestKernel4MatchesExplicitProduct(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		d1, m, n1 := 1+r.Intn(20), 1+r.Intn(30), 1+r.Intn(10)
		a := randCSC(r, m, n1, r.Intn(60))
		slab := a.ToCSR()
		sm := materialize(rng.NewBatchXoshiro(8), rng.Uniform11, 64, d1, m)

		ahat := dense.NewMatrix(d1, n1)
		samp := rng.NewSampler(rng.NewBatchXoshiro(8), rng.Uniform11)
		v := make([]float64, d1)
		gen := Kernel4(ahat, slab, 64, samp, v, new(SampleClock))
		// Samples = d1 × (number of nonempty rows).
		nonempty := 0
		for i := 0; i < slab.M; i++ {
			if slab.RowPtr[i+1] > slab.RowPtr[i] {
				nonempty++
			}
		}
		if gen != int64(d1)*int64(nonempty) {
			t.Fatalf("Kernel4 generated %d, want %d", gen, d1*nonempty)
		}
		want := naiveMul(sm, a)
		if ahat.MaxAbsDiff(want) > 1e-10 {
			t.Fatalf("trial %d: Kernel4 off by %g", trial, ahat.MaxAbsDiff(want))
		}
	}
}

// Algorithms 3 and 4 anchor the RNG at the same (blockRow, row) checkpoints,
// so with identical accumulation order they must produce bitwise-identical
// results — the invariant that lets users switch kernels freely.
func TestKernel3Kernel4BitwiseIdentical(t *testing.T) {
	f := func(seed uint64, dims [3]uint8, nnzRaw uint16) bool {
		r := rand.New(rand.NewSource(int64(seed)))
		d1 := 1 + int(dims[0])%24
		m := 1 + int(dims[1])%40
		n1 := 1 + int(dims[2])%12
		a := randCSC(r, m, n1, int(nnzRaw)%120)
		slab := a.ToCSR()

		ah3 := dense.NewMatrix(d1, n1)
		s3 := rng.NewSampler(rng.NewBatchXoshiro(seed), rng.Uniform11)
		Kernel3(ah3, a, 5, s3, make([]float64, d1), new(SampleClock))

		ah4 := dense.NewMatrix(d1, n1)
		s4 := rng.NewSampler(rng.NewBatchXoshiro(seed), rng.Uniform11)
		Kernel4(ah4, slab, 5, s4, make([]float64, d1), new(SampleClock))

		for k := range ah3.Data {
			if ah3.Data[k] != ah4.Data[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestKernelsSkipEmptyRowsAndColumns(t *testing.T) {
	// A matrix with empty rows: Kernel4 must not generate samples for them.
	coo := sparse.NewCOO(10, 4, 3)
	coo.Append(2, 0, 1)
	coo.Append(2, 3, 2)
	coo.Append(7, 1, 3)
	a := coo.ToCSC()
	slab := a.ToCSR()
	d1 := 8
	ahat := dense.NewMatrix(d1, 4)
	s := rng.NewSampler(rng.NewBatchXoshiro(1), rng.Uniform11)
	gen := Kernel4(ahat, slab, 0, s, make([]float64, d1), new(SampleClock))
	if gen != int64(d1)*2 { // rows 2 and 7 only
		t.Fatalf("Kernel4 generated %d, want %d (2 nonempty rows)", gen, d1*2)
	}
}

func TestKernelPregenVariantsMatchRNGKernels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	d1, m, n1 := 10, 30, 8
	a := randCSC(r, m, n1, 70)
	slab := a.ToCSR()
	sm := materialize(rng.NewBatchXoshiro(13), rng.Uniform11, 3, d1, m)

	ahRNG := dense.NewMatrix(d1, n1)
	s := rng.NewSampler(rng.NewBatchXoshiro(13), rng.Uniform11)
	Kernel3(ahRNG, a, 3, s, make([]float64, d1), new(SampleClock))

	ah3 := dense.NewMatrix(d1, n1)
	Kernel3Pregen(ah3, a, sm)
	if ah3.MaxAbsDiff(ahRNG) != 0 {
		t.Fatal("Kernel3Pregen != Kernel3 with same S")
	}

	ah4 := dense.NewMatrix(d1, n1)
	Kernel4Pregen(ah4, slab, sm)
	if ah4.MaxAbsDiff(ahRNG) != 0 {
		t.Fatal("Kernel4Pregen != Kernel3 with same S")
	}
}

func TestKernelDimensionPanics(t *testing.T) {
	a := randCSC(rand.New(rand.NewSource(8)), 5, 4, 6)
	s := rng.NewSampler(rng.NewBatchXoshiro(1), rng.Uniform11)
	cases := []func(){
		func() { Kernel3(dense.NewMatrix(3, 9), a, 0, s, make([]float64, 3), new(SampleClock)) },
		func() { Kernel3(dense.NewMatrix(3, 4), a, 0, s, make([]float64, 1), new(SampleClock)) },
		func() { Kernel4(dense.NewMatrix(3, 9), a.ToCSR(), 0, s, make([]float64, 3), new(SampleClock)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAxpyTailLengths(t *testing.T) {
	for n := 0; n <= 9; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = float64(i + 1)
			y[i] = 1
		}
		axpy(2, x, y)
		for i := range y {
			if y[i] != 1+2*float64(i+1) {
				t.Fatalf("n=%d: y[%d] = %g", n, i, y[i])
			}
		}
	}
}

// The fused ±1 sign-bit paths must agree bitwise with the unfused ±1
// vector semantics across odd block heights and word boundaries.
func TestFusedRademacherPaths(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, d1 := range []int{1, 3, 63, 64, 65, 100, 130} {
		a := randCSC(r, 40, 8, 60)
		slab := a.ToCSR()
		sm := materialize(rng.NewBatchXoshiro(21), rng.Rademacher, 7, d1, 40)

		ah3 := dense.NewMatrix(d1, 8)
		s3 := rng.NewSampler(rng.NewBatchXoshiro(21), rng.Rademacher)
		Kernel3(ah3, a, 7, s3, make([]float64, d1), new(SampleClock))
		want := naiveMul(sm, a)
		if ah3.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("d1=%d: fused Kernel3 ±1 off by %g", d1, ah3.MaxAbsDiff(want))
		}

		ah4 := dense.NewMatrix(d1, 8)
		s4 := rng.NewSampler(rng.NewBatchXoshiro(21), rng.Rademacher)
		Kernel4(ah4, slab, 7, s4, make([]float64, d1), new(SampleClock))
		if ah4.MaxAbsDiff(ah3) != 0 {
			t.Fatalf("d1=%d: fused Kernel4 ±1 differs from Kernel3", d1)
		}
	}
}

// The fused path must also match the generic fillRademacher consumed through
// a sampler with a source that lacks the fused interfaces (Philox).
func TestFusedRademacherMatchesGenericSource(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	a := randCSC(r, 30, 6, 40)
	d1 := 50
	sm := materialize(rng.NewPhilox4x32(5), rng.Rademacher, 3, d1, 30)
	ah := dense.NewMatrix(d1, 6)
	s := rng.NewSampler(rng.NewPhilox4x32(5), rng.Rademacher)
	Kernel3(ah, a, 3, s, make([]float64, d1), new(SampleClock))
	want := naiveMul(sm, a)
	if ah.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("philox ±1 kernel off by %g", ah.MaxAbsDiff(want))
	}
}

// The clock reads the first step of a round and every sampleEvery-th step
// after it, leaves its largest reading out, scales the rest to all steps,
// and never reports more than the busy time it is capped at.
func TestSampleClockSamplesAndCaps(t *testing.T) {
	var c SampleClock
	for i := 0; i < 2*sampleEvery+1; i++ {
		c.start()
		c.stop()
	}
	if c.steps != 2*sampleEvery+1 || c.timed != 3 {
		t.Fatalf("steps %d timed %d, want %d and 3", c.steps, c.timed, 2*sampleEvery+1)
	}
	// Two readings of 10 ns net and one of 1000 ns, which is left out.
	c.sum, c.max = 3*clockCost()+1020, clockCost()+1000
	if got := c.Estimate(time.Hour); got != 10*(2*sampleEvery+1) {
		t.Fatalf("Estimate = %v, want %v", got, 10*(2*sampleEvery+1))
	}
	if got := c.Estimate(7); got != 7 {
		t.Fatalf("Estimate capped at 7ns = %v", got)
	}
	c = SampleClock{}
	if c.Estimate(time.Hour) != 0 {
		t.Fatal("a fresh clock reports sample time")
	}
}
