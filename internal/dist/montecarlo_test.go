package dist

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// Monte-Carlo convergence tests with fixed seeds: sample moments must land
// within 6 standard errors of the analytic moments (the standard errors
// themselves computed from analytic higher moments), and the empirical
// mass below an analytic quantile must match its probability. Fixed seeds
// keep the tests deterministic; 6 sigma leaves no flakiness margin even if
// the underlying generator changes.

// mcCases lists the families under test with their fixed seeds: the
// moment test draws from momentSeed, and the quantile test from
// quantileSeed, +1 and +2 for p = 0.1, 0.5 and 0.95. Each case carries its
// own seeds, so adding or removing a case moves no other case's stream.
var mcCases = []struct {
	name                     string
	d                        Distribution
	momentSeed, quantileSeed uint64
}{
	{"coxian2", Coxian2{Mu1: 4, Mu2: 0.5, P: 0.25}, 2021, 45},
	{"exponential", NewExponential(1.7), 2022, 48},
	{"pareto", NewBoundedPareto(1.5, 1, 64), 2024, 54},
	{"uniform", NewUniform(0.5, 4), 2025, 57},
}

func TestMonteCarloMoments(t *testing.T) {
	const n = 400000
	for _, c := range mcCases {
		name, d, seed := c.name, c.d, c.momentSeed
		r := xrand.New(seed)
		var s1, s2 float64
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			s1 += x
			s2 += x * x
		}
		s1 /= n
		s2 /= n
		m1, m2, m4 := d.Moment(1), d.Moment(2), d.Moment(4)
		seMean := math.Sqrt((m2 - m1*m1) / n)
		seM2 := math.Sqrt((m4 - m2*m2) / n)
		if math.Abs(s1-m1) > 6*seMean {
			t.Errorf("%s (seed %d): sample mean %v vs analytic %v (se %v)", name, seed, s1, m1, seMean)
		}
		if math.Abs(s2-m2) > 6*seM2 {
			t.Errorf("%s (seed %d): sample E[X^2] %v vs analytic %v (se %v)", name, seed, s2, m2, seM2)
		}
	}
}

func TestMonteCarloQuantileMass(t *testing.T) {
	const n = 200000
	for _, c := range mcCases {
		name, d, seed := c.name, c.d, c.quantileSeed
		for _, p := range []float64{0.1, 0.5, 0.95} {
			q := d.Quantile(p)
			r := xrand.New(seed)
			below := 0
			for i := 0; i < n; i++ {
				if d.Sample(r) <= q {
					below++
				}
			}
			got := float64(below) / n
			se := math.Sqrt(p * (1 - p) / n)
			if math.Abs(got-p) > 6*se {
				t.Errorf("%s (seed %d): mass below Quantile(%v) = %v (se %v)", name, seed, p, got, se)
			}
			seed++
		}
	}
}

// TestSampleDeterminism: equal seeds give bit-identical sample streams —
// the repository-wide reproducibility requirement.
func TestSampleDeterminism(t *testing.T) {
	for _, c := range mcCases {
		a, b := xrand.New(7), xrand.New(7)
		for i := 0; i < 1000; i++ {
			if x, y := c.d.Sample(a), c.d.Sample(b); x != y {
				t.Fatalf("%s: diverged at draw %d: %v vs %v", c.name, i, x, y)
			}
		}
	}
}
