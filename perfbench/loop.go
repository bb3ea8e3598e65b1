package main

import (
	"math"
	"sync"
	"time"

	"sketchsp/internal/core"
	"sketchsp/internal/dense"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opPut
)

// opResult is what one operation did, as judged by the benchmark.
type opResult struct {
	kind     opKind
	sjlt     bool    // a sparse-family (SJLT) sketch
	flops    float64 // 2·nnz·d of a dense sketch, 0 otherwise
	err      error   // error, shed request or timeout
	mismatch bool    // the answer differs from its reference
	// call is the client-observed time of the call itself and req its
	// trace request ID (0 when untraced).
	call time.Duration
	req  uint64
	// class indexes sketch-inproc's op classes; stats are the execute
	// stats the call returned.
	class int
	stats core.Stats
}

func (r opResult) failed() bool { return r.err != nil || r.mismatch }

// opRecord is an opResult with its timing: lat runs from when the
// operation was due (open loop) or issued (closed loop) to its completion;
// late is how far behind schedule the open-loop generator sent it.
type opRecord struct {
	opResult
	lat, late time.Duration
	done      time.Duration // completion, from the start of the phase
}

// phase is one measured stretch of a run.
type phase struct {
	Name      string  `json:"name"`
	Traced    bool    `json:"traced"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Mismatch  int     `json:"mismatched"`
	WallS     float64 `json:"wall_s"`
	recs      []opRecord
	wall      time.Duration
}

func newPhase(name string, traced bool, recs []opRecord, wall time.Duration) *phase {
	p := &phase{Name: name, Traced: traced, Sent: len(recs), recs: recs, wall: wall, WallS: wall.Seconds()}
	for _, r := range recs {
		switch {
		case r.mismatch:
			p.Mismatch++
			p.Failed++
		case r.err != nil:
			p.Failed++
		default:
			p.Succeeded++
		}
	}
	return p
}

// latencies returns the sorted latencies in ms of the phase's operations
// that match keep. A failed operation counts as +Inf: it misses every
// latency limit.
func (p *phase) latencies(keep func(opRecord) bool) []float64 {
	var xs []float64
	for _, r := range p.recs {
		if !keep(r) {
			continue
		}
		if r.failed() {
			xs = append(xs, math.Inf(1))
		} else {
			xs = append(xs, ms(r.lat))
		}
	}
	return sortedCopy(xs)
}

// rateWindow is the width of the windows throughput is taken over.
const rateWindow = 500 * time.Millisecond

// Rates are reported at their upper quartile, over windows or over
// operations. On a host whose hypervisor steals CPU time in bursts (0.3% to
// 40% of it, run to run, where this benchmark was written) the quarter of
// windows or operations the bursts missed is what stays put from run to
// run; a median moves with the steal share.
const rateQuantile = 75

// windowRate is the upper quartile, over the phase's full rateWindow
// windows, of the summed weight of the successful operations completing in
// each, per second.
func (p *phase) windowRate(weight func(opRecord) float64) float64 {
	return percentile(sortedCopy(p.windowRates(weight)), rateQuantile)
}

// windowRates returns the per-window rates of windowRate.
func (p *phase) windowRates(weight func(opRecord) float64) []float64 {
	n := int(p.wall / rateWindow)
	if n == 0 {
		return nil
	}
	sums := make([]float64, n)
	for _, r := range p.recs {
		if w := int(r.done / rateWindow); w < n && !r.failed() {
			sums[w] += weight(r)
		}
	}
	for i := range sums {
		sums[i] /= rateWindow.Seconds()
	}
	return sums
}

// perOpRate is the upper quartile over the successful operations matching
// keep of value(r) per second of the operation's own call time.
func (p *phase) perOpRate(keep func(opRecord) bool, value func(opRecord) float64) float64 {
	var xs []float64
	for _, r := range p.recs {
		if keep(r) && !r.failed() {
			xs = append(xs, value(r)/r.call.Seconds())
		}
	}
	return percentile(sortedCopy(xs), rateQuantile)
}

func one(opRecord) float64 { return 1 }

func flopsOf(r opRecord) float64 { return r.flops }

func isSJLT(r opRecord) bool { return r.kind == opRead && r.sjlt }

func isRead(r opRecord) bool  { return r.kind == opRead }
func isWrite(r opRecord) bool { return r.kind == opWrite }
func isDense(r opRecord) bool { return r.kind == opRead && !r.sjlt }

// openLoop sends operation i at start+sched[i] whatever the state of the
// earlier ones, each on its own goroutine, and waits for all of them.
func openLoop(sched []time.Duration, do func(i int) opResult) ([]opRecord, time.Duration) {
	recs := make([]opRecord, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		recs[i].late = time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			res := do(i)
			recs[i].opResult = res
			recs[i].lat = time.Since(due)
			recs[i].done = time.Since(start)
		}(i, due)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// closedLoop runs callers goroutines; each issues do(caller, k) for
// k = 0, 1, ... and sends the next only after the previous completed,
// until dur has passed.
func closedLoop(callers int, dur time.Duration, do func(caller, k int) opResult) ([]opRecord, time.Duration) {
	per := make([][]opRecord, callers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				res := do(c, k)
				per[c] = append(per[c], opRecord{opResult: res, lat: time.Since(t0), done: time.Since(start)})
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var recs []opRecord
	for _, r := range per {
		recs = append(recs, r...)
	}
	return recs, wall
}

// bitEqual reports whether two matrices hold the same shape and the same
// float64 bit patterns (so -0.0 differs from +0.0 and NaNs compare by bits).
func bitEqual(a, b *dense.Matrix) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for j := 0; j < a.Cols; j++ {
		ca, cb := a.Col(j), b.Col(j)
		for i := range ca {
			if math.Float64bits(ca[i]) != math.Float64bits(cb[i]) {
				return false
			}
		}
	}
	return true
}
