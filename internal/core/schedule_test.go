package core

import (
	"testing"
	"time"

	"sketchsp/internal/dense"
	"sketchsp/internal/rng"
	"sketchsp/internal/sparse"
)

func sumWeights(tasks []blockTask) int64 {
	var s int64
	for _, t := range tasks {
		s += t.weight
	}
	return s
}

func checkPartition(t *testing.T, colStart []int, n int) {
	t.Helper()
	if len(colStart) < 1 || colStart[0] != 0 {
		t.Fatalf("partition %v does not start at 0", colStart)
	}
	if n > 0 && colStart[len(colStart)-1] != n {
		t.Fatalf("partition %v does not end at %d", colStart, n)
	}
	for k := 1; k < len(colStart); k++ {
		if colStart[k] <= colStart[k-1] {
			t.Fatalf("partition %v not strictly increasing at %d", colStart, k)
		}
	}
}

func TestColPartitionUniformInputKeepsGrid(t *testing.T) {
	// A uniform matrix has nothing to rebalance: every grid slab sits at
	// the mean, so neither the split rule (> 2·ideal) nor the fuse rule
	// (combined ≤ min(ideal, gridMean)) can fire, and the cache-motivated
	// b_n grid survives verbatim.
	a := sparse.RandomUniform(2000, 1000, 0.02, 3)
	colStart, splits, fuses := colPartition(a, 100, 10)
	checkPartition(t, colStart, a.N)
	if splits != 0 {
		t.Errorf("uniform matrix: %d splits, want 0", splits)
	}
	if fuses != 0 {
		t.Errorf("uniform matrix: %d fuses, want 0", fuses)
	}
	if len(colStart) != 11 {
		t.Errorf("uniform matrix: %d boundaries, want the 11 grid boundaries", len(colStart))
	}
}

func TestColPartitionSplitsHeavySlab(t *testing.T) {
	// Abnormal_B: ~all mass in the middle third. With bn=100 the middle
	// grid slabs each hold ~12k nnz (far above the ideal 5k share) and the
	// outer slabs are near-empty, so the partitioner must both split the
	// heavy slabs and fuse the light runs.
	a := sparse.AbnormalB(5000, 1500, 60000, 2998.0/3000.0, 7)
	colStart, splits, fuses := colPartition(a, 100, 12)
	checkPartition(t, colStart, a.N)
	if splits == 0 {
		t.Fatal("heavy middle slab was not split")
	}
	if fuses == 0 {
		t.Fatal("near-empty outer slabs were not fused")
	}
	// Max slab nnz should now be within ~2× the ideal share instead of
	// holding ~100% of the matrix.
	ideal := int64(a.NNZ()) / 12
	var max int64
	for k := 0; k+1 < len(colStart); k++ {
		if w := int64(a.SlabNNZ(colStart[k], colStart[k+1])); w > max {
			max = w
		}
	}
	if max > 3*ideal {
		t.Errorf("heaviest slab still %d nnz (ideal %d)", max, ideal)
	}
}

func TestColPartitionSingleHeavyColumnCannotSplit(t *testing.T) {
	// All mass in one column: width-1 slabs are atomic, so the partitioner
	// must leave the monster column alone (stealing absorbs it at run
	// time) and still emit a valid partition.
	coo := sparse.NewCOO(500, 40, 500)
	for i := 0; i < 500; i++ {
		coo.Append(i, 17, 1.0)
	}
	a := coo.ToCSC()
	colStart, _, _ := colPartition(a, 10, 8)
	checkPartition(t, colStart, a.N)
	for k := 0; k+1 < len(colStart); k++ {
		if colStart[k] <= 17 && 17 < colStart[k+1] && colStart[k+1]-colStart[k] > 10 {
			t.Errorf("slab [%d,%d) holding the heavy column grew past the grid width",
				colStart[k], colStart[k+1])
		}
	}
}

func TestColPartitionDegenerate(t *testing.T) {
	// Empty matrix: single boundary, no tasks to weigh.
	empty := sparse.RandomUniform(10, 0, 0, 1)
	colStart, splits, fuses := colPartition(empty, 5, 4)
	if len(colStart) != 1 || colStart[0] != 0 || splits != 0 || fuses != 0 {
		t.Fatalf("empty matrix partition %v (%d/%d)", colStart, splits, fuses)
	}
	// All-zero matrix: grid passes through untouched.
	zero := sparse.RandomUniform(10, 30, 0, 1)
	colStart, _, _ = colPartition(zero, 7, 4)
	checkPartition(t, colStart, 30)
	if len(colStart) != 6 {
		t.Fatalf("zero matrix: %d boundaries, want 6 grid boundaries", len(colStart))
	}
	// n < bn: one slab.
	small := sparse.RandomUniform(50, 8, 0.3, 2)
	colStart, _, _ = colPartition(small, 100, 1)
	checkPartition(t, colStart, 8)
}

func TestMakeWeightedTasks(t *testing.T) {
	a := sparse.RandomUniform(300, 100, 0.05, 11)
	// d < bd: a single short block row.
	tasks := makeWeightedTasks(20, 64, a, sparse.UniformColSplit(a.N, 30), 0)
	if len(tasks) != 4 {
		t.Fatalf("%d tasks, want 4 (1 block row × 4 slabs)", len(tasks))
	}
	for _, tk := range tasks {
		if tk.d1 != 20 || tk.i0 != 0 {
			t.Fatalf("block row not clipped to d: %+v", tk)
		}
		if want := int64(a.SlabNNZ(tk.j0, tk.j0+tk.n1)) * int64(tk.d1); tk.weight != want {
			t.Fatalf("task %+v weight, want %d", tk, want)
		}
	}
	// Total weight = nnz·d when there is one block row covering all of d.
	if got, want := sumWeights(tasks), int64(a.NNZ())*20; got != want {
		t.Fatalf("total weight %d, want nnz·d = %d", got, want)
	}
	// Multiple block rows: weights sum to nnz·d regardless of the split.
	tasks = makeWeightedTasks(50, 16, a, sparse.UniformColSplit(a.N, 13), 0)
	if got, want := sumWeights(tasks), int64(a.NNZ())*50; got != want {
		t.Fatalf("multi-row total weight %d, want %d", got, want)
	}
	// Slab indices address the partition, not j0/bn.
	colStart := []int{0, 3, 40, 100}
	tasks = makeWeightedTasks(10, 10, a, colStart, 0)
	for i, tk := range tasks {
		if tk.slab != i {
			t.Fatalf("task %d slab %d", i, tk.slab)
		}
		if tk.j0 != colStart[i] || tk.n1 != colStart[i+1]-colStart[i] {
			t.Fatalf("task %d geometry %+v", i, tk)
		}
	}
}

func TestNewSchedPrepack(t *testing.T) {
	tasks := []blockTask{
		{weight: 50}, {weight: 10}, {weight: 40}, {weight: 10}, {weight: 30},
	}
	s := newSched(tasks, 2)
	// Every task appears exactly once across the queues.
	seen := make(map[int]bool)
	for _, ti := range s.order {
		if seen[ti] {
			t.Fatalf("task %d queued twice", ti)
		}
		seen[ti] = true
	}
	if len(seen) != len(tasks) {
		t.Fatalf("%d tasks queued, want %d", len(seen), len(tasks))
	}
	// Queues are heaviest-first within each worker segment.
	for w := 0; w < 2; w++ {
		for i := s.qoff[w] + 1; i < s.qoff[w+1]; i++ {
			if s.weight[s.order[i]] > s.weight[s.order[i-1]] {
				t.Fatalf("worker %d queue not heaviest-first", w)
			}
		}
	}
	// Loads match segment sums.
	for w := 0; w < 2; w++ {
		var l int64
		for i := s.qoff[w]; i < s.qoff[w+1]; i++ {
			l += s.weight[s.order[i]]
		}
		if l != s.loads[w] {
			t.Fatalf("worker %d load %d != segment sum %d", w, s.loads[w], l)
		}
	}
}

func TestSchedClaimAndSteal(t *testing.T) {
	tasks := []blockTask{{weight: 9}, {weight: 7}, {weight: 5}, {weight: 3}}
	s := newSched(tasks, 2)
	s.reset()
	// Drain worker 0's queue through claims; remain must hit 0 and further
	// claims return -1.
	for {
		ti := s.claim(0)
		if ti < 0 {
			break
		}
	}
	if r := s.remain[0].v.Load(); r != 0 {
		t.Fatalf("worker 0 remain %d after drain", r)
	}
	if s.claim(0) != -1 {
		t.Fatal("claim on drained queue succeeded")
	}
	// victim(0) now points at worker 1 (only one with remaining weight);
	// victim(1) sees nothing left elsewhere.
	if v := s.victim(0); v != 1 {
		t.Fatalf("victim(0) = %d, want 1", v)
	}
	if v := s.victim(1); v != -1 {
		t.Fatalf("victim(1) = %d, want -1 (worker 0 drained)", v)
	}
	// Stealing drains worker 1 via the same claim path.
	for {
		ti := s.claim(1)
		if ti < 0 {
			break
		}
	}
	if v := s.victim(0); v != -1 {
		t.Fatal("victim found after full drain")
	}
	// reset() re-arms both queues.
	s.reset()
	if s.claim(0) < 0 || s.claim(1) < 0 {
		t.Fatal("claims failed after reset")
	}
}

// The tentpole reproducibility guarantee: the sketch bits are invariant
// under worker count, scheduler choice, and the nnz-aware repartition, on
// exactly the skewed inputs the scheduler reshapes most aggressively.
func TestSchedulerBitReproducibility(t *testing.T) {
	inputs := map[string]*sparse.CSC{
		"abnormalB": sparse.AbnormalB(800, 360, 14000, 2998.0/3000.0, 13),
		"powerlaw":  sparse.PowerLaw(600, 300, 12000, 1.6, 17),
	}
	for name, a := range inputs {
		for _, alg := range []Algorithm{Alg3, Alg4} {
			// Sequential uniform-grid reference.
			ref := dense.NewMatrix(64, a.N)
			refPlan := mustPlan(t, a, 64, Options{
				Algorithm: alg, Seed: 42, BlockD: 17, BlockN: 50,
				Workers: 1, Sched: SchedUniform,
			})
			mustExecute(t, refPlan, ref)

			for _, workers := range []int{1, 2, 8} {
				for _, sched := range []Scheduler{SchedWeighted, SchedNoSteal, SchedUniform} {
					p := mustPlan(t, a, 64, Options{
						Algorithm: alg, Seed: 42, BlockD: 17, BlockN: 50,
						Workers: workers, Sched: sched,
					})
					got := dense.NewMatrix(64, a.N)
					mustExecute(t, p, got)
					if !sameBits(ref, got) {
						t.Fatalf("%s/%v: workers=%d sched=%v changed the sketch bits",
							name, alg, workers, sched)
					}
					// Second execute on the same plan: still identical.
					mustExecute(t, p, got)
					if !sameBits(ref, got) {
						t.Fatalf("%s/%v: workers=%d sched=%v re-execute changed bits",
							name, alg, workers, sched)
					}
				}
			}
		}
	}
}

func TestPlanStatsObservability(t *testing.T) {
	a := sparse.AbnormalB(2000, 1500, 60000, 2998.0/3000.0, 5)
	p := mustPlan(t, a, 96, Options{
		Algorithm: Alg4, Seed: 1, BlockD: 48, BlockN: 500, Workers: 4,
	})
	ps := p.Stats()
	if ps.Scheduler != SchedWeighted {
		t.Fatalf("default scheduler %v, want weighted", ps.Scheduler)
	}
	if ps.Slabs != len(p.colStart)-1 {
		t.Fatalf("Slabs %d != partition %d", ps.Slabs, len(p.colStart)-1)
	}
	if ps.SlabsSplit == 0 {
		t.Fatal("AbnormalB: no slabs split")
	}
	if ps.MaxTaskWeight < ps.MinTaskWeight || ps.MeanTaskWeight <= 0 {
		t.Fatalf("weight histogram: min=%d max=%d mean=%g",
			ps.MinTaskWeight, ps.MaxTaskWeight, ps.MeanTaskWeight)
	}
	if ps.PredictedImbalance < 1.0 {
		t.Fatalf("predicted imbalance %g < 1", ps.PredictedImbalance)
	}

	ahat := dense.NewMatrix(96, a.N)
	st := mustExecute(t, p, ahat)
	if len(st.WorkerBusy) != ps.Workers {
		t.Fatalf("WorkerBusy len %d, want %d", len(st.WorkerBusy), ps.Workers)
	}
	var sum int64
	for _, b := range st.WorkerBusy {
		sum += int64(b)
	}
	if sum <= 0 {
		t.Fatal("no busy time recorded")
	}
	if st.Imbalance < 1.0 {
		t.Fatalf("measured imbalance %g < 1", st.Imbalance)
	}
}

// The weighted partition must actually shrink the heaviest task relative to
// the uniform grid on a skewed input — the quantity that bounds the best
// possible makespan.
func TestWeightedPartitionReducesMaxTaskWeight(t *testing.T) {
	a := sparse.AbnormalB(2000, 1500, 60000, 2998.0/3000.0, 5)
	opts := Options{Algorithm: Alg3, Seed: 1, BlockD: 48, BlockN: 500, Workers: 8}

	optsU := opts
	optsU.Sched = SchedUniform
	pu := mustPlan(t, a, 96, optsU)
	pw := mustPlan(t, a, 96, opts)
	if pw.Stats().MaxTaskWeight*2 > pu.Stats().MaxTaskWeight {
		t.Fatalf("weighted max task %d not ≪ uniform max task %d",
			pw.Stats().MaxTaskWeight, pu.Stats().MaxTaskWeight)
	}
	if pw.Stats().PredictedImbalance >= pu.Stats().PredictedImbalance {
		t.Fatalf("weighted predicted imbalance %g not better than uniform %g",
			pw.Stats().PredictedImbalance, pu.Stats().PredictedImbalance)
	}
}

func TestStealsReportedOnSkew(t *testing.T) {
	// With a deliberately coarse uniform prepack and heavy skew, at least
	// one steal should occur across a few rounds (not guaranteed per
	// round on a loaded machine, so retry a few times).
	a := sparse.PowerLaw(2000, 400, 80000, 1.6, 23)
	p := mustPlan(t, a, 128, Options{
		Algorithm: Alg3, Seed: 9, BlockD: 128, BlockN: 100, Workers: 4,
	})
	ahat := dense.NewMatrix(128, a.N)
	var steals int64
	for round := 0; round < 20 && steals == 0; round++ {
		st := mustExecute(t, p, ahat)
		steals += st.Steals
	}
	// Steals are timing-dependent; just require the counter plumbing not
	// to panic and — on this synthetic skew — usually to fire. Accept 0
	// only if the host serialised every round.
	t.Logf("observed %d steals", steals)
}

func TestNewPlanRejectsUnknownScheduler(t *testing.T) {
	a := sparse.RandomUniform(50, 20, 0.2, 1)
	if _, err := NewPlan(a, 8, Options{Sched: Scheduler(9)}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestSchedulerStrings(t *testing.T) {
	for s, want := range map[Scheduler]string{
		SchedWeighted: "weighted-steal",
		SchedNoSteal:  "weighted-nosteal",
		SchedUniform:  "uniform-chan",
		Scheduler(7):  "Scheduler(7)",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// With no option set, every Execute of every distribution, algorithm,
// worker count and scheduler reports sample time from the one production
// kernel: a positive estimate no larger than the workers' summed busy time.
func TestExecuteReportsSampleTime(t *testing.T) {
	a := sparse.PowerLaw(400, 200, 9000, 1.4, 31)
	const d = 100
	ahat := dense.NewMatrix(d, a.N)
	for _, dist := range []rng.Distribution{rng.Uniform11, rng.Rademacher, rng.Gaussian, rng.ScaledInt, rng.SJLT} {
		for _, alg := range []Algorithm{Alg3, Alg4} {
			for _, workers := range []int{1, 2} {
				for _, sch := range []Scheduler{SchedWeighted, SchedUniform} {
					p := mustPlan(t, a, d, Options{Algorithm: alg, Dist: dist, Seed: 77,
						BlockD: 33, BlockN: 40, Workers: workers, Sched: sch})
					for rep := 0; rep < 2; rep++ {
						st := mustExecute(t, p, ahat)
						var busy time.Duration
						for _, b := range st.WorkerBusy {
							busy += b
						}
						if st.Samples <= 0 || st.SampleTime <= 0 || st.SampleTime > busy {
							t.Errorf("%v/%v/w%d/%v rep %d: samples %d, sample time %v, busy %v",
								dist, alg, workers, sch, rep, st.Samples, st.SampleTime, busy)
						}
					}
				}
			}
		}
	}
}
