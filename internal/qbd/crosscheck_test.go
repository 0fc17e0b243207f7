package qbd

import (
	"math"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/linalg"
	"repro/internal/xrand"
)

// randomQBD builds a random stable 2-phase QBD: arrivals at rate lambda in
// both phases, phase-dependent service, random phase switching.
func randomQBD(r *xrand.Rand) (*Chain, float64, [2]float64, [2][2]float64) {
	lambda := 0.2 + 0.6*r.Float64()
	mu := [2]float64{lambda/(0.3+0.6*r.Float64()) + 0.2, lambda/(0.3+0.6*r.Float64()) + 0.2}
	// Ensure stability: mean service rate above lambda in both phases.
	sw := [2][2]float64{}
	sw[0][1] = 0.1 + r.Float64()
	sw[1][0] = 0.1 + r.Float64()

	a0 := linalg.FromRows([][]float64{{lambda, 0}, {0, lambda}})
	a2 := linalg.FromRows([][]float64{{mu[0], 0}, {0, mu[1]}})
	a1 := linalg.FromRows([][]float64{
		{-(lambda + mu[0] + sw[0][1]), sw[0][1]},
		{sw[1][0], -(lambda + mu[1] + sw[1][0])},
	})
	b := BoundaryLevel{
		U: linalg.FromRows([][]float64{{lambda, 0}, {0, lambda}}),
		Local: linalg.FromRows([][]float64{
			{-(lambda + sw[0][1]), sw[0][1]},
			{sw[1][0], -(lambda + sw[1][0])},
		}),
	}
	return &Chain{Phases: 2, Boundary: []BoundaryLevel{b}, A0: a0, A1: a1, A2: a2}, lambda, mu, sw
}

// buildEquivalentCTMC materializes the same process as a truncated sparse
// CTMC for the independent ground-truth solver.
func buildEquivalentCTMC(lambda float64, mu [2]float64, sw [2][2]float64, cap int) *ctmc.Chain {
	idx := func(level, phase int) int { return 2*level + phase }
	c := ctmc.New(2 * (cap + 1))
	for level := 0; level <= cap; level++ {
		for phase := 0; phase < 2; phase++ {
			s := idx(level, phase)
			if level < cap {
				c.AddRate(s, idx(level+1, phase), lambda)
			}
			if level > 0 {
				c.AddRate(s, idx(level-1, phase), mu[phase])
			}
			other := 1 - phase
			c.AddRate(s, idx(level, other), sw[phase][other])
		}
	}
	return c
}

// TestQBDMatchesCTMCOnRandomChains is the central cross-validation: the
// matrix-analytic solver and the sparse CTMC engine are fully independent
// implementations, so agreement on random chains pins both. Every chain is
// stable by construction (mu > lambda in both phases), so a Solve error
// fails the test.
func TestQBDMatchesCTMCOnRandomChains(t *testing.T) {
	r := xrand.New(2024)
	for trial := 0; trial < 40; trial++ {
		chain, lambda, mu, sw := randomQBD(r)
		sol, err := chain.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		const cap = 400
		ground := buildEquivalentCTMC(lambda, mu, sw, cap)
		pi, err := ground.Stationary()
		if err != nil {
			t.Fatal(err)
		}
		for level := 0; level < 10; level++ {
			want := pi[2*level] + pi[2*level+1]
			got := levelProb(sol, level)
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("trial %d level %d: qbd %v vs ctmc %v", trial, level, got, want)
			}
		}
		// Mean levels agree.
		meanCTMC := 0.0
		for level := 0; level <= cap; level++ {
			meanCTMC += float64(level) * (pi[2*level] + pi[2*level+1])
		}
		if math.Abs(sol.MeanLevel()-meanCTMC) > 1e-6*(1+meanCTMC) {
			t.Fatalf("trial %d: mean level qbd %v vs ctmc %v", trial, sol.MeanLevel(), meanCTMC)
		}
	}
}

// TestGeometricTailDecay: the tail decay ratio of level probabilities
// converges to the spectral radius of R, the Perron root of the 2x2 R.
func TestGeometricTailDecay(t *testing.T) {
	c := mh2Chain(0.7, 0.4, 2.0, 0.5)
	sol, err := c.Solve()
	if err != nil {
		t.Fatal(err)
	}
	r := sol.R
	tr, det := r.At(0, 0)+r.At(1, 1), r.At(0, 0)*r.At(1, 1)-r.At(0, 1)*r.At(1, 0)
	sp := (tr + math.Sqrt(tr*tr-4*det)) / 2
	ratio := levelProb(sol, 40) / levelProb(sol, 39)
	if math.Abs(ratio-sp) > 1e-6 {
		t.Fatalf("tail decay %v vs sp(R) %v", ratio, sp)
	}
}
