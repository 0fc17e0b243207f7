package main

import "math/rand/v2"

// Every generated input derives from the run's -seed through one named
// stream per purpose, so the same seed yields the same specs, send schedule
// and popularity picks, and changing one stream's use never shifts another.
const (
	streamSchedule uint64 = iota + 1
	streamPicks
	streamClosedPicks
	streamSpecSeeds
	streamNewSeeds
	streamSample
	streamProbe
)

// rng returns the seeded generator of one input stream.
func rng(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// specSeed derives the BaseSeed of the i-th generated spec of a stream. It
// is never 0, which exp.Sweep reads as 1.
func specSeed(seed, stream uint64, i int) uint64 {
	x := splitmix(splitmix(seed^stream<<56) + uint64(i))
	if x == 0 {
		return 1
	}
	return x
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// poissonSchedule returns the send offsets, in seconds from the phase
// start, of an open-loop Poisson arrival process at rate per second over
// the given duration.
func poissonSchedule(r *rand.Rand, rate, seconds float64) []float64 {
	var at []float64
	for t := r.ExpFloat64() / rate; t < seconds; t += r.ExpFloat64() / rate {
		at = append(at, t)
	}
	return at
}

// zipfPicker draws catalog indices in [0, n) with Zipf(s) popularity:
// index 0 is the most requested.
func zipfPicker(r *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(r, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// sampled reports whether the i-th response belongs to the seeded 1-in-20
// verification sample.
func sampled(seed uint64, i int) bool {
	return splitmix(seed^streamSample<<56+uint64(i))%20 == 0
}
