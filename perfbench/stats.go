package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only when
// at least this many samples lie above it, so one outlier cannot be the
// whole tail.
const minBeyond = 10

// tailLadder lists the tail percentiles tailPercentile may choose from,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rankIndex is the 0-based nearest-rank index of percentile p (0 < p <= 100)
// in a sorted sample of n.
func rankIndex(n int, p float64) int {
	// The epsilon keeps decimal percentiles such as 99.9, inexact in
	// binary, from rounding the rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// samplesBeyond is how many of n sorted samples lie above the p-th
// percentile's rank.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples beyond it; ok is false when not even the
// median does.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if samplesBeyond(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the sample median (mean of the middle two for even n), the
// rule used for repeated set-up and calibration timings.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer that saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// latencyNote describes a latency sample: its count, median and p90, and
// the highest percentile with at least minBeyond samples beyond it.
func latencyNote(what string, sorted []float64) string {
	if len(sorted) == 0 {
		return what + ": no samples"
	}
	n := fmt.Sprintf("%s: %d samples, p50 %.3f ms, p90 %.3f ms", what, len(sorted),
		percentile(sorted, 50), percentile(sorted, 90))
	if p, ok := tailPercentile(len(sorted)); ok && p > 90 {
		n += fmt.Sprintf(", p%v %.3f ms (highest percentile with %d samples beyond)", p, percentile(sorted, p), minBeyond)
	}
	return n
}

// checkMedian fails a run whose latency sample cannot support its median
// under the percentile rule.
func checkMedian(what string, sorted []float64) error {
	if samplesBeyond(len(sorted), 50) < minBeyond {
		return fmt.Errorf("only %d %s: too few for a median", len(sorted), what)
	}
	return nil
}
