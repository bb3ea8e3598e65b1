package main

import (
	"math/rand"
	"time"
)

// Seed streams: every random choice of a run derives from the --seed
// argument through one of these salts, so input generation, the arrival
// schedule and the request mix are independent of each other yet all
// reproducible.
const (
	saltInputs   = 0x1f3a
	saltSchedule = 0x5c17
	saltMix      = 0x2b9d
	saltClosed   = 0x7e41
)

func seeded(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*0x9e3779b1 + salt))
}

// poissonSchedule returns n send offsets of a Poisson arrival process at
// rate per second: exponential gaps drawn from seed. The count is fixed and
// the span varies around n/rate, so every run of a workload has the same
// number of open-loop samples.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	r := seeded(seed, saltSchedule)
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += r.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// zipfPicker draws matrix indices in [0, k) with Zipf popularity: index 0
// is the most requested.
type zipfPicker struct{ z *rand.Zipf }

func newZipfPicker(r *rand.Rand, s float64, k int) zipfPicker {
	return zipfPicker{rand.NewZipf(r, s, 1, uint64(k-1))}
}

func (p zipfPicker) next() int { return int(p.z.Uint64()) }

// closedPickers gives each closed-loop caller its own popularity stream.
func closedPickers(rc *runCtx, s float64, k int) []zipfPicker {
	out := make([]zipfPicker, rc.workers)
	for c := range out {
		out[c] = newZipfPicker(seeded(rc.seed, saltClosed+int64(c)), s, k)
	}
	return out
}
