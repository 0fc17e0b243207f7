// Package xrand provides a small, deterministic pseudo-random number
// generator suite used throughout the repository.
//
// Reproducibility is a hard requirement for the experiments in this
// repository: every figure the drivers regenerate must be bit-for-bit
// stable across runs and across machines. The package therefore
// implements its own PCG-64 (XSL-RR) generator rather than relying on the
// seeding behavior of math/rand, and exposes explicit stream derivation so
// that independent stochastic processes (e.g. the elastic and inelastic
// arrival processes) consume independent random streams.
package xrand

import "math"

// mult is the 128-bit multiplier used by the PCG-64 family, split into two
// 64-bit halves (high, low).
const (
	multHi = 2549297995355413924
	multLo = 4865540595714422341
)

// Rand is a PCG-64 XSL-RR pseudo-random generator. The zero value is not
// usable; construct instances with New or NewStream.
type Rand struct {
	stateHi, stateLo uint64
	incHi, incLo     uint64
	// spare holds a cached standard normal variate (Box-Muller pairs).
	spare    float64
	hasSpare bool
}

// New returns a generator seeded from a single 64-bit seed using the default
// stream. Two generators constructed with the same seed produce identical
// sequences.
func New(seed uint64) *Rand {
	return NewStream(seed, 0)
}

// NewStream returns a generator for the given (seed, stream) pair. Distinct
// stream values yield statistically independent sequences for the same seed,
// which the simulator uses to decouple arrival processes from size draws.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{}
	// The increment must be odd; fold the stream id in via SplitMix64 so
	// that nearby stream ids map to well-separated increments.
	inc := splitMix64(stream ^ 0xda3e39cb94b95bdb)
	r.incHi = splitMix64(inc)
	r.incLo = inc<<1 | 1
	r.stateHi = 0
	r.stateLo = 0
	r.step()
	r.addSeed(splitMix64(seed), splitMix64(seed^0x9e3779b97f4a7c15))
	r.step()
	return r
}

func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *Rand) addSeed(hi, lo uint64) {
	r.stateLo += lo
	r.stateHi += hi
	if r.stateLo < lo {
		r.stateHi++
	}
}

// step advances the 128-bit LCG state.
func (r *Rand) step() {
	// 128-bit multiply of state by mult.
	hi, lo := mul128(r.stateHi, r.stateLo, multHi, multLo)
	// 128-bit add of increment.
	lo += r.incLo
	if lo < r.incLo {
		hi++
	}
	hi += r.incHi
	r.stateHi, r.stateLo = hi, lo
}

// mul128 computes (aHi,aLo) * (bHi,bLo) mod 2^128.
func mul128(aHi, aLo, bHi, bLo uint64) (hi, lo uint64) {
	hi, lo = mul64(aLo, bLo)
	hi += aLo*bHi + aHi*bLo
	return hi, lo
}

// mul64 returns the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	w0 := t & mask
	k := t >> 32
	t = aHi*bLo + k
	w1 := t & mask
	w2 := t >> 32
	t = aLo*bHi + w1
	k = t >> 32
	lo = t<<32 + w0
	hi = aHi*bHi + w2 + k
	return hi, lo
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	oldHi, oldLo := r.stateHi, r.stateLo
	r.step()
	// XSL-RR output function: xor the halves, rotate by the top 6 bits.
	xored := oldHi ^ oldLo
	rot := uint(oldHi >> 58)
	return xored>>rot | xored<<((64-rot)&63)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform value in (0, 1), never exactly zero, which
// makes it safe to pass to math.Log.
func (r *Rand) Float64Open() float64 {
	for {
		v := (float64(r.Uint64()>>11) + 0.5) / (1 << 53)
		if v > 0 && v < 1 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	return -math.Log(r.Float64Open()) / rate
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Normal returns a standard normal variate via the Box-Muller transform.
func (r *Rand) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	u := r.Float64Open()
	v := r.Float64Open()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*v)
}
