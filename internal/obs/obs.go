// Package obs is the dependency-free observability substrate of the serving
// stack: atomic counters, gauges and fixed-bucket latency histograms whose
// hot-path Inc/Add/Observe allocate nothing, plus lightweight stage spans
// and a registry that renders everything as Prometheus text exposition
// (format version 0.0.4).
//
// The design constraints come from the layers above:
//
//   - Zero allocations on the hot path. The plan-cache hit path of
//     internal/service is allocation-free end to end (BenchmarkServiceHit
//     pins 0 allocs/op), and metric recording rides that path. Counters and
//     gauges are single padded atomics; histograms index a fixed bucket
//     array with shift arithmetic; spans are plain value types, never
//     interface-boxed.
//
//   - Contention padding. Counters and gauges occupy their own cache line
//     (the padded-atomic idiom of internal/core/schedule.go), so workers
//     hammering adjacent metrics do not false-share.
//
//   - No dependencies. The exposition writer is hand-rolled: the full
//     Prometheus client library costs allocations on the hot path
//     (label-value lookups, interface indirection) and a large dependency
//     for what is, for this fixed metric set, a page of formatting code.
//     Scrapes are off the hot path and may allocate freely.
//
// Metric naming follows one scheme across the stack (DESIGN.md §9):
// sketchsp_<layer>_<what>[_total|_seconds], where layer ∈ {service, http,
// plan, client}. Counters end in _total, histograms are in seconds and end
// in _seconds, gauges are bare nouns.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter padded to its own
// cache line. The zero value is ready to use; Inc and Add are safe for
// concurrent use and never allocate.
type Counter struct {
	v atomic.Int64
	_ [56]byte // pad to a cache line so hot counters do not false-share
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Counters are monotone by convention; negative n is the
// caller's bug, not checked on the hot path.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value (queue depth, in-flight requests) with
// the same padding and zero-alloc guarantees as Counter.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 value (achieved residual, sketch
// distortion estimate) stored as atomic bits, with the same padding and
// zero-alloc guarantees as Gauge. Integer gauges stay Gauge; FloatGauge
// exists for the solver metrics whose natural unit is a residual, not a
// count.
type FloatGauge struct {
	v atomic.Uint64
	_ [56]byte
}

// Set stores v.
func (g *FloatGauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *FloatGauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// HistBuckets is the fixed histogram resolution shared by every duration
// histogram in the stack: bucket i counts observations in
// [1µs·2^i, 1µs·2^(i+1)), i.e. 1µs up to ~34s, with bucket 0 absorbing
// sub-microsecond observations and the last bucket everything slower. The
// geometry is identical to the service latency histogram, which is what
// lets /metrics and the in-process service.Stats snapshot reconcile
// exactly — they read the same buckets.
const HistBuckets = 26

// BucketCeiling returns the inclusive upper edge of histogram bucket i —
// the duration a quantile read from that bucket reports. Out-of-range
// indices clamp.
func BucketCeiling(i int) time.Duration {
	if i < 0 {
		i = 0
	}
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return time.Duration(1000 << uint(i))
}

// BucketIndex returns the bucket an observation of d lands in.
func BucketIndex(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns / 1000)) // 0 for <1µs, 1 for [1µs,2µs), ...
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// Histogram is a lock-free log₂ duration histogram. Observe is hot-path
// safe: three atomic adds plus a max CAS, no allocation. The head counters
// are padded away from the bucket array; the buckets themselves are not
// individually padded — adjacent-bucket contention only occurs for
// near-identical latencies, where the counters contend on the same line
// anyway.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	_       [40]byte
	buckets [HistBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[BucketIndex(d)].Add(1)
}

// ValueBucketCeiling returns the inclusive upper edge of value-histogram
// bucket i: bucket i counts observations in (2^(i-1), 2^i], with bucket 0
// absorbing everything ≤ 1. Out-of-range indices clamp.
func ValueBucketCeiling(i int) int64 {
	if i < 0 {
		i = 0
	}
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return 1 << uint(i)
}

// ValueBucketIndex returns the bucket an observation of n lands in.
func ValueBucketIndex(n int64) int {
	if n <= 1 {
		return 0
	}
	i := bits.Len64(uint64(n - 1)) // smallest i with 2^i >= n
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	return i
}

// ObserveValue records one dimensionless integer observation (a batch size,
// a shard count) into the log₂ value-bucket geometry. A histogram must be
// observed through exactly one of Observe/ObserveValue for its lifetime —
// the registry enforces this by registering duration and value histograms
// as distinct kinds. Sum and max are kept in raw units, not nanoseconds.
func (h *Histogram) ObserveValue(n int64) {
	if n < 0 {
		n = 0
	}
	h.count.Add(1)
	h.sumNS.Add(n)
	for {
		cur := h.maxNS.Load()
		if n <= cur || h.maxNS.CompareAndSwap(cur, n) {
			break
		}
	}
	h.buckets[ValueBucketIndex(n)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// SumNS returns the sum of all observations in nanoseconds.
func (h *Histogram) SumNS() int64 { return h.sumNS.Load() }

// MaxNS returns the largest observation in nanoseconds. Prometheus
// histograms carry no max; this feeds the service.Stats snapshot.
func (h *Histogram) MaxNS() int64 { return h.maxNS.Load() }

// Snapshot copies the bucket counters into dst. The copy is per-bucket
// atomic, not globally atomic — consistent with scraping counters one by
// one.
func (h *Histogram) Snapshot(dst *[HistBuckets]int64) {
	for i := range dst {
		dst[i] = h.buckets[i].Load()
	}
}

// Span measures one stage of a request — decode, queue wait, kernel,
// encode — into a histogram. It is a plain value type: StartSpan returns it
// on the stack and End observes the elapsed time, so spanning a stage costs
// two time reads and one Observe, with no interface boxing and no
// allocation. A zero Span (nil histogram) is inert, which lets optional
// instrumentation sites skip nil checks.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// StartSpan opens a span recording into h (which may be nil for a no-op).
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End records the elapsed time since StartSpan. End on a zero Span is a
// no-op.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(time.Since(s.t0))
	}
}
