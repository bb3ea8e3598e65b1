package core

import (
	"sketchsp/internal/obs"
)

// PlanMetrics is the execute-stage slice of the observability layer: live
// counters and stage histograms a Plan records into on every Execute. One
// PlanMetrics is typically shared by every plan a serving layer builds
// (internal/service registers a single set), so the series aggregate across
// the whole plan cache the way an operator wants to scrape them —
// per-matrix breakdowns stay in service.Stats.Entries.
//
// Build one with NewPlanMetrics: recording expects every field set, so
// every stage, the RNG stage included, is always on. Recording is strictly
// zero-alloc — atomic adds and fixed-bucket observes — so wiring metrics
// into a plan does not disturb Execute's allocation-free steady state
// (TestServiceHitZeroAlloc gates this end to end).
type PlanMetrics struct {
	// Executes counts completed Execute rounds.
	Executes *obs.Counter
	// Steals accumulates tasks run by a worker other than their prepacked
	// owner (work-stealing schedulers only).
	Steals *obs.Counter
	// Samples accumulates random values generated.
	Samples *obs.Counter
	// ExecuteTime is the kernel-stage histogram: one observation per
	// Execute round, covering the full parallel compute (the paper's
	// "multiply cost").
	ExecuteTime *obs.Histogram
	// SampleTime is the RNG-stage histogram: per-round time spent
	// generating random numbers (the paper's "generation cost"), observed
	// on every round that generated samples. The value is the sampled
	// estimate of Stats.SampleTime.
	SampleTime *obs.Histogram
}

// NewPlanMetrics registers the plan-stage metric set on r under the
// sketchsp_plan_* names and returns the handles. Safe to call more than
// once with the same registry — registration is idempotent per name.
func NewPlanMetrics(r *obs.Registry) *PlanMetrics {
	return &PlanMetrics{
		Executes: r.Counter("sketchsp_plan_executes_total",
			"Completed Plan.Execute rounds."),
		Steals: r.Counter("sketchsp_plan_steals_total",
			"Tasks executed by a worker other than their prepacked owner."),
		Samples: r.Counter("sketchsp_plan_samples_total",
			"Random values generated by the kernels."),
		ExecuteTime: r.Histogram("sketchsp_plan_execute_seconds",
			"Kernel-stage latency per Execute round (multiply cost)."),
		SampleTime: r.Histogram("sketchsp_plan_sample_seconds",
			"RNG-stage time per Execute round (generation cost), a sampled estimate."),
	}
}

// SetMetrics attaches m to the plan: every subsequent Execute records its
// round into m's counters and histograms. Pass nil to detach. SetMetrics
// must be ordered before the Executes it should observe (the service calls
// it while building a cache entry, before the entry is published); it is
// not synchronised against concurrent Executes.
func (p *Plan) SetMetrics(m *PlanMetrics) { p.met = m }

// recordMetrics folds one completed round into the attached metric set.
// Called from ExecuteContext with the plan gate held; never allocates.
func (p *Plan) recordMetrics(st *Stats) {
	m := p.met
	if m == nil {
		return
	}
	m.Executes.Inc()
	m.Steals.Add(st.Steals)
	m.Samples.Add(st.Samples)
	m.ExecuteTime.Observe(st.Total)
	if st.Samples > 0 {
		m.SampleTime.Observe(st.SampleTime)
	}
}
