package dist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// Property tests via testing/quick. Each property receives a uint64 seed
// from quick and derives well-conditioned random parameters through the
// repository's own deterministic xrand, so failures replay exactly from
// the reported seed.

var quickCfg = &quick.Config{MaxCount: 300}

// randomDists builds one instance of every distribution family from seed.
func randomDists(seed uint64) []Distribution {
	r := xrand.New(seed)
	rate := 0.1 + 5*r.Float64()
	lo := 0.1 + r.Float64()
	hi := lo + 0.5 + 5*r.Float64()
	alpha := 0.5 + 3*r.Float64()
	mu1 := 0.2 + 4*r.Float64()
	mu2 := 0.2 + 4*r.Float64()
	cox := Coxian2{Mu1: mu1, Mu2: mu2, P: r.Float64()}
	return []Distribution{
		NewExponential(rate),
		NewUniform(lo, hi),
		NewBoundedPareto(alpha, lo, hi),
		cox,
	}
}

// TestPropertyQuantileRoundTrip: CDF(Quantile(p)) ≈ p on the interior of
// the probability range for every family.
func TestPropertyQuantileRoundTrip(t *testing.T) {
	prop := func(seed uint64, praw uint16) bool {
		p := (float64(praw) + 0.5) / (math.MaxUint16 + 1) // p in (0,1)
		for _, d := range randomDists(seed) {
			q := d.Quantile(p)
			if math.IsNaN(q) || q < 0 {
				t.Logf("seed %d: %T Quantile(%v) = %v", seed, d, p, q)
				return false
			}
			if math.Abs(d.CDF(q)-p) > 1e-9 {
				t.Logf("seed %d: %T CDF(Quantile(%v)) = %v", seed, d, p, d.CDF(q))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyCDFMonotone: x1 <= x2 implies CDF(x1) <= CDF(x2), and CDF
// stays inside [0,1] with no NaN, over a range spanning the whole support.
func TestPropertyCDFMonotone(t *testing.T) {
	prop := func(seed uint64, a, b uint16) bool {
		for _, d := range randomDists(seed) {
			// Map the two raw values onto [0, ~10x mean] and order them.
			scale := 10 * d.Mean() / math.MaxUint16
			x1, x2 := float64(a)*scale, float64(b)*scale
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			f1, f2 := d.CDF(x1), d.CDF(x2)
			if math.IsNaN(f1) || math.IsNaN(f2) || f1 < 0 || f2 > 1 || f1 > f2+1e-12 {
				t.Logf("seed %d: %T CDF(%v)=%v CDF(%v)=%v", seed, d, x1, f1, x2, f2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyQuantileMonotone: p1 <= p2 implies Quantile(p1) <= Quantile(p2).
func TestPropertyQuantileMonotone(t *testing.T) {
	prop := func(seed uint64, a, b uint16) bool {
		p1 := (float64(a) + 0.5) / (math.MaxUint16 + 1)
		p2 := (float64(b) + 0.5) / (math.MaxUint16 + 1)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		for _, d := range randomDists(seed) {
			if d.Quantile(p1) > d.Quantile(p2)+1e-12 {
				t.Logf("seed %d: %T Quantile(%v)=%v > Quantile(%v)=%v",
					seed, d, p1, d.Quantile(p1), p2, d.Quantile(p2))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyMomentOrdering: Mean == Moment(1), the Cauchy-Schwarz bound
// E[X^2] >= E[X]^2, and Lyapunov's inequality E[X^2]^3 <= E[X^3]^2 for
// nonnegative variates. All moments must be finite and positive.
func TestPropertyMomentOrdering(t *testing.T) {
	prop := func(seed uint64) bool {
		for _, d := range randomDists(seed) {
			m1, m2, m3 := d.Moment(1), d.Moment(2), d.Moment(3)
			if !isFinitePos(m1) || !isFinitePos(m2) || !isFinitePos(m3) {
				t.Logf("seed %d: %T non-finite moments (%v, %v, %v)", seed, d, m1, m2, m3)
				return false
			}
			if relDiff(d.Mean(), m1) > 1e-12 {
				t.Logf("seed %d: %T Mean %v != Moment(1) %v", seed, d, d.Mean(), m1)
				return false
			}
			if m2 < m1*m1*(1-1e-12) {
				t.Logf("seed %d: %T E[X^2]=%v < E[X]^2=%v", seed, d, m2, m1*m1)
				return false
			}
			if m2*m2*m2 > m3*m3*(1+1e-9) {
				t.Logf("seed %d: %T Lyapunov violated: m2^3=%v > m3^2=%v", seed, d, m2*m2*m2, m3*m3)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestPropertySampleSupport: samples are finite, nonnegative, and inside
// the family's support.
func TestPropertySampleSupport(t *testing.T) {
	prop := func(seed uint64) bool {
		r := xrand.New(seed ^ 0xabcdef)
		for _, d := range randomDists(seed) {
			for i := 0; i < 64; i++ {
				x := d.Sample(r)
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					t.Logf("seed %d: %T sample %v", seed, d, x)
					return false
				}
				switch v := d.(type) {
				case Uniform:
					if x < v.Lo || x > v.Hi {
						t.Logf("seed %d: uniform sample %v outside [%v,%v]", seed, x, v.Lo, v.Hi)
						return false
					}
				case BoundedPareto:
					if x < v.Lo || x > v.Hi {
						t.Logf("seed %d: pareto sample %v outside [%v,%v]", seed, x, v.Lo, v.Hi)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestPropertyFitRoundTrips: the first three moments of a random Coxian2
// are a feasible target, and FitCoxian2 reproduces them. The two rates are
// drawn a factor 2 to 20 apart; a triple from (nearly) equal rates can sit
// on the double root of the fitter's quadratic, where no round trip is
// promised.
func TestPropertyFitRoundTrips(t *testing.T) {
	prop := func(seed uint64) bool {
		r := xrand.New(seed)
		mu1 := 0.2 + 4*r.Float64()
		ratio := 0.05 + 0.45*r.Float64()
		if r.Bernoulli(0.5) {
			ratio = 1 / ratio
		}
		src := Coxian2{Mu1: mu1, Mu2: mu1 * ratio, P: r.Float64()}
		c2, err := FitCoxian2(src.Moment(1), src.Moment(2), src.Moment(3))
		if err != nil {
			t.Logf("seed %d: FitCoxian2 on %+v: %v", seed, src, err)
			return false
		}
		for k := 1; k <= 3; k++ {
			if relDiff(c2.Moment(k), src.Moment(k)) > 1e-6 {
				t.Logf("seed %d: FitCoxian2 Moment(%d) %v vs %v", seed, k, c2.Moment(k), src.Moment(k))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}
