// Package core implements the paper's primary contribution: the outer
// blocking scheme of Algorithm 1 wrapped around the on-the-fly-RNG compute
// kernels (Algorithm 3 and Algorithm 4), in sequential and shared-memory
// parallel form, together with the block-size heuristics of §III-A/§V-B.
//
// The package is organised as a planner/executor split (plan.go): NewPlan
// inspects (A, d, Options) once — resolving AlgAuto, fixing the blocking,
// converting to BlockedCSR, pre-scaling A for the ScaledInt trick — and the
// returned Plan executes repeated sketches allocation-free on a persistent
// worker pool. Sketcher is the original one-shot surface, kept as a thin
// wrapper that plans and executes per call: every (block-row, sparse-row)
// pair (r, j) is an O(1) RNG checkpoint from which the needed d₁ entries of
// S's column j are regenerated on demand, so Â = S·A is computed without
// ever materialising the random d×m sketching matrix S.
package core

import (
	"fmt"
	"time"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

// Algorithm selects the compute kernel.
type Algorithm int

const (
	// Alg3 is compute-kernel variant kji over CSC (Algorithm 3):
	// strided access to all operands, oblivious to the sparsity pattern,
	// generates d·nnz(A) samples. Preferred on architectures that
	// penalise random access or have fast RNG (the "Frontera" regime).
	Alg3 Algorithm = iota
	// Alg4 is compute-kernel variant jki over blocked CSR (Algorithm 4):
	// reuses each generated column of S across a whole sparse row,
	// cutting samples to ≤ d·m·⌈n/b_n⌉, at the price of
	// sparsity-dependent access and a format conversion. Preferred where
	// memory access is cheap relative to RNG (the "Perlmutter" regime).
	Alg4
)

// String implements fmt.Stringer for Algorithm.
func (a Algorithm) String() string {
	switch a {
	case Alg3:
		return "alg3-kji-csc"
	case Alg4:
		return "alg4-jki-blockedcsr"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures a Sketcher or Plan. The zero value gives the paper's
// defaults: Algorithm 3, 4-lane xoshiro, uniform (-1,1) entries, auto block
// sizes, sequential execution. No option switches instrumentation: every
// run reports its sample time in Stats.SampleTime from the same kernels.
type Options struct {
	// Algorithm picks the compute kernel (default Alg3).
	Algorithm Algorithm
	// Dist is the distribution of the entries of S (default Uniform11).
	Dist rng.Distribution
	// Source is the RNG engine (default 4-lane batched xoshiro256++).
	Source rng.SourceKind
	// Sparsity is s, the per-column nonzero count for the sparse sketch
	// family (Dist SJLT/CountSketch); ignored for dense distributions.
	// 0 selects the default ⌈√d⌉ (the 1/√d-density rule); values are
	// clamped to [1, d] at plan time (s ≥ d degenerates to a dense ±1/√s
	// column set) and CountSketch always resolves to s = 1. The resolved
	// value is surfaced in PlanStats.Sparsity.
	Sparsity int
	// Seed makes the sketch reproducible: same seed, same d, same
	// blocking → identical Â, independent of Workers.
	Seed uint64
	// BlockD is b_d, the block size along the sketch dimension d.
	// 0 selects the paper's default (3000, clipped to d).
	BlockD int
	// BlockN is b_n, the block size along the n (column) dimension.
	// 0 selects the paper's default (500 for Alg3, 1200 for Alg4,
	// clipped to n).
	BlockN int
	// Workers is the number of parallel workers over outer blocks;
	// 0 means GOMAXPROCS, 1 forces sequential execution.
	Workers int
	// RNGCost is the relative cost h of generating one random value,
	// used only by AlgAuto's inspector (0 selects 1; measure the host's
	// value with analysis.EstimateH). The inspector additionally scales
	// h by the configured distribution's measured per-sample cost
	// (rng.DistCost), so a ±1 sketch's recomputation is charged far less
	// than a Gaussian one.
	RNGCost float64
	// TuneBlockN lets the planner choose b_n for Algorithm 4 with the
	// §III-B sample-count model (analysis.TuneBlockN) instead of the
	// static default. Only consulted when BlockN is 0; it adds an
	// O(nnz·log n) inspection pass at plan time, amortised across
	// executes. Tuning never changes the sketch values: b_n affects
	// memory traffic, not RNG checkpoints.
	TuneBlockN bool
	// Sched selects the task scheduler (default SchedWeighted: nnz-aware
	// partition + LPT prepacked queues + work stealing). SchedUniform
	// restores the uniform-grid shared-channel executor for A/B
	// comparison. The choice never affects the sketch bits — only which
	// worker computes which block, and how columns group into slabs.
	Sched Scheduler
}

// Stats reports what a sketch invocation did.
//
// Accounting split: the planner/executor surface charges one-time
// inspection work (format conversion, pre-scaling, task construction) to
// PlanStats at plan time, so Plan.Execute returns Stats with
// ConvertTime == 0 and Total covering compute only. The one-shot
// Sketcher/Sketch path plans internally on every call, so its Stats fold
// that call's conversion into ConvertTime and Total as before.
type Stats struct {
	// Samples is the number of random values generated.
	Samples int64
	// Flops is the useful floating-point work, 2·d·nnz(A).
	Flops int64
	// SampleTime is the time spent generating random numbers, summed
	// over workers. It is a sampled estimate, reported on every call:
	// each worker times one generation step in 256, leaves its largest
	// reading out and scales the rest up to all its steps
	// (kernels.SampleClock).
	SampleTime time.Duration
	// ConvertTime is the CSC→BlockedCSR conversion time (Alg4 only).
	// It is paid once per plan: Plan.Execute always reports 0 here (see
	// PlanStats.ConvertTime); the one-shot Sketcher path re-plans per
	// call and reports that call's conversion.
	ConvertTime time.Duration
	// Total is the wall-clock time of the invocation: plan + execute
	// (including conversion) for the one-shot Sketcher path, execute
	// only for Plan.Execute.
	Total time.Duration
	// Steals counts tasks executed by a worker other than their prepacked
	// owner (work-stealing schedulers only; 0 for SchedUniform and
	// sequential runs).
	Steals int64
	// WorkerBusy is the measured per-worker busy time for the round. It
	// aliases a plan-owned buffer to keep Execute allocation-free: the
	// next Execute on the same plan overwrites it, so callers that keep
	// it across rounds must copy. Nil for one-shot Sketcher stats.
	WorkerBusy []time.Duration
	// Imbalance is the measured load-imbalance ratio of the round,
	// max(WorkerBusy)·workers/sum(WorkerBusy) — 1.0 is perfect balance,
	// ~workers means one worker did everything. 0 when unmeasured.
	Imbalance float64
}

// GFlops returns the achieved GFLOP/s over the total runtime.
func (s Stats) GFlops() float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.Flops) / s.Total.Seconds() / 1e9
}

// Sketcher computes Â = S·A for a fixed sketch size d and configuration —
// the one-shot surface, implemented as a thin wrapper that builds a Plan
// and executes it once per call. A Sketcher is safe for concurrent use by
// multiple goroutines: all mutable state lives in the per-call plan.
// Repeated-sketch consumers should hold a Plan instead (NewPlan) to
// amortise the per-call setup this wrapper re-pays.
type Sketcher struct {
	d    int
	opts Options
}

// DefaultBlockD and DefaultBlockN* are the paper's benchmark block sizes
// (Tables II–V).
const (
	DefaultBlockD     = 3000
	DefaultBlockNAlg3 = 500
	DefaultBlockNAlg4 = 1200
)

// NewSketcher returns a Sketcher producing d-row sketches. d must be
// positive.
func NewSketcher(d int, opts Options) (*Sketcher, error) {
	if d <= 0 {
		return nil, fmt.Errorf("%w: d=%d", ErrInvalidSketchSize, d)
	}
	if opts.BlockD < 0 || opts.BlockN < 0 || opts.Workers < 0 || opts.Sparsity < 0 {
		return nil, fmt.Errorf("%w: negative (BlockD=%d BlockN=%d Workers=%d Sparsity=%d)",
			ErrBadOptions, opts.BlockD, opts.BlockN, opts.Workers, opts.Sparsity)
	}
	return &Sketcher{d: d, opts: opts}, nil
}

// D returns the sketch size.
func (sk *Sketcher) D() int { return sk.d }

// Options returns the sketcher's configuration.
func (sk *Sketcher) Options() Options { return sk.opts }

// resolveBlockSizes resolves the effective (b_d, b_n) for an n-column input
// under algorithm alg, from the requested (or 0 = default) sizes.
func resolveBlockSizes(d, n int, alg Algorithm, optBD, optBN int) (bd, bn int) {
	bd = optBD
	if bd == 0 {
		bd = DefaultBlockD
	}
	if bd > d {
		bd = d
	}
	bn = optBN
	if bn == 0 {
		if alg == Alg4 {
			bn = DefaultBlockNAlg4
		} else {
			bn = DefaultBlockNAlg3
		}
	}
	if bn > n {
		bn = n
	}
	if bn < 1 {
		bn = 1
	}
	return bd, bn
}

// blockSizes resolves the effective (b_d, b_n) for an n-column input.
func (sk *Sketcher) blockSizes(n int) (bd, bn int) {
	return resolveBlockSizes(sk.d, n, sk.opts.Algorithm, sk.opts.BlockD, sk.opts.BlockN)
}

// Sketch allocates and returns Â = S·A (d×n, column-major).
func (sk *Sketcher) Sketch(a *sparse.CSC) (*dense.Matrix, Stats) {
	ahat := dense.NewMatrix(sk.d, a.N)
	st := sk.SketchInto(ahat, a)
	return ahat, st
}

// SketchInto computes Â = S·A into the caller's d×n matrix, overwriting it.
// It plans and executes in one shot; the legacy panic-on-dimension-mismatch
// contract is preserved here, while the Plan surface reports errors instead.
func (sk *Sketcher) SketchInto(ahat *dense.Matrix, a *sparse.CSC) Stats {
	start := time.Now()
	p, err := NewPlan(a, sk.d, sk.opts)
	if err != nil {
		panic("core: SketchInto: " + err.Error())
	}
	defer p.Close()
	st, err := p.Execute(ahat)
	if err != nil {
		panic(fmt.Sprintf("core: SketchInto Â is %dx%d, want %dx%d",
			ahat.Rows, ahat.Cols, sk.d, a.N))
	}
	// One-shot accounting: this call paid for planning, so surface the
	// conversion here and charge the full wall clock.
	st.ConvertTime = p.Stats().ConvertTime
	st.Total = time.Since(start)
	return st
}

// blockTask is one (block-row of Â, column-slab) cell of Algorithm 1's
// blocking, generalised to an arbitrary column partition. Cells write
// disjoint regions of Â, so they parallelise without synchronisation
// (§II-C: parallelise the outer loops). weight is the nnz(slab)·d1 cost
// estimate the scheduler balances on; slab indexes the plan's partition so
// runTask never recomputes j0/b_n (which would be wrong for variable-width
// slabs).
type blockTask struct {
	i0, d1 int // block-row offset and height
	j0, n1 int // column-slab offset and width
	slab   int // index into the plan's column partition
	weight int64
}
