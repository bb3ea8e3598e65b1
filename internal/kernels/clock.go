package kernels

import (
	"math"
	"sync"
	"time"
)

// sampleEvery is the SampleClock's period: it times the first generation
// step of a round and every sampleEvery-th step after it. A power of two,
// so the due check is a mask.
const sampleEvery = 256

// clockEpoch anchors the clock's readings. time.Since on a monotonic Time
// reads only the monotonic clock, about half the cost of a time.Now.
var clockEpoch = time.Now()

// clockCost is the cost of one empty reading, measured once per process on
// first use: the best of up to 300 back-to-back clock pairs, stopping
// early once 0.5 ms is spent.
var clockCost = sync.OnceValue(func() time.Duration {
	best, start := time.Duration(math.MaxInt64), time.Since(clockEpoch)
	for i := 0; i < 300 && time.Since(clockEpoch)-start < 500*time.Microsecond; i++ {
		t0 := time.Since(clockEpoch)
		best = min(best, time.Since(clockEpoch)-t0)
	}
	return best
})

// SampleClock estimates the time a worker spends generating S from a
// sample of its generation steps (SetState plus Fill, RawWords or
// FillSJLTColumn), so the kernels report sample time on every call without
// reading the clock around each step. It never touches RNG state. A round
// starts from the zero value.
type SampleClock struct {
	steps int64         // generation steps this round
	timed int64         // steps the clock read
	sum   time.Duration // readings of the timed steps, clock cost included
	max   time.Duration // the largest reading
	t0    time.Duration // start of the step in flight, when it is due
}

// start opens a generation step; only due steps read the clock.
func (c *SampleClock) start() {
	if c.steps&(sampleEvery-1) == 0 {
		c.t0 = time.Since(clockEpoch)
	}
}

// stop closes the step start opened.
func (c *SampleClock) stop() {
	if c.steps&(sampleEvery-1) == 0 {
		c.read()
	}
	c.steps++
}

// read records the reading of the due step in flight.
func (c *SampleClock) read() {
	r := time.Since(clockEpoch) - c.t0
	c.sum += r
	c.max = max(c.max, r)
	c.timed++
}

// Estimate returns the round's generation time: the mean reading less the
// clock's own cost, scaled to all steps, and capped at busy (the worker's
// busy time for the round). With two or more readings the largest is left
// out of the mean: scaled by up to sampleEvery, one cold first step or one
// preempted step would otherwise dominate the estimate.
func (c *SampleClock) Estimate(busy time.Duration) time.Duration {
	sum, n := c.sum, c.timed
	if n > 1 {
		sum, n = sum-c.max, n-1
	}
	net := sum - time.Duration(n)*clockCost()
	if n == 0 || net <= 0 {
		return 0
	}
	return min(time.Duration(float64(net)*float64(c.steps)/float64(n)), busy)
}
