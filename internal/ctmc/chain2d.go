package ctmc

import (
	"fmt"
	"math"
)

// Model2D carries the parameters of the paper's two-class model for chain
// construction.
type Model2D struct {
	K                int
	LambdaI, LambdaE float64
	MuI, MuE         float64
}

// Rho returns the system load of Eq. 1.
func (m Model2D) Rho() float64 {
	return m.LambdaI/(float64(m.K)*m.MuI) + m.LambdaE/(float64(m.K)*m.MuE)
}

// Alloc is a stationary deterministic allocation rule: the total servers
// given to inelastic and to elastic jobs in state (i, j) on k servers. It is
// the pi_I(i,j), pi_E(i,j) of Section 2.
type Alloc func(k, i, j int) (ai, ae float64)

// IFAlloc is Inelastic-First: min(i, k) servers to inelastic jobs, the rest
// to elastic jobs when present.
func IFAlloc(k, i, j int) (float64, float64) {
	ai := math.Min(float64(i), float64(k))
	ae := 0.0
	if j > 0 {
		ae = float64(k) - ai
	}
	return ai, ae
}

// EFAlloc is Elastic-First: all k servers to elastic jobs when present,
// otherwise min(i, k) to inelastic jobs.
func EFAlloc(k, i, j int) (float64, float64) {
	if j > 0 {
		return 0, float64(k)
	}
	return math.Min(float64(i), float64(k)), 0
}

// ThresholdAlloc interpolates IF and EF: inelastic jobs get at most cap
// servers while elastic jobs are present (cap=k is IF, cap=0 is EF).
func ThresholdAlloc(cap int) Alloc {
	return func(k, i, j int) (float64, float64) {
		if j == 0 {
			return math.Min(float64(i), float64(k)), 0
		}
		ai := math.Min(float64(i), math.Min(float64(cap), float64(k)))
		return ai, float64(k) - ai
	}
}

// DeferAlloc is the idling policy of the Appendix B experiment: elastic jobs
// are served only when no inelastic job is present.
func DeferAlloc(k, i, j int) (float64, float64) {
	ai := math.Min(float64(i), float64(k))
	if i > 0 || j == 0 {
		return ai, 0
	}
	return 0, float64(k)
}

// PolicyChain builds the truncated 2D chain of Figure 1 for the given
// allocation rule. States (i, j) with i <= capI, j <= capE are indexed
// row-major; arrivals that would cross the truncation boundary are dropped
// (their rate is simply absent), so the result is exact for the truncated
// chain and approximates the infinite chain from below in load.
func PolicyChain(m Model2D, alloc Alloc, capI, capE int) *Chain {
	idx := func(i, j int) int { return i*(capE+1) + j }
	c := New((capI + 1) * (capE + 1))
	for i := 0; i <= capI; i++ {
		for j := 0; j <= capE; j++ {
			s := idx(i, j)
			if i < capI {
				c.AddRate(s, idx(i+1, j), m.LambdaI)
			}
			if j < capE {
				c.AddRate(s, idx(i, j+1), m.LambdaE)
			}
			ai, ae := alloc(m.K, i, j)
			validateAlloc(m.K, i, j, ai, ae)
			if i > 0 && ai > 0 {
				c.AddRate(s, idx(i-1, j), ai*m.MuI)
			}
			if j > 0 && ae > 0 {
				c.AddRate(s, idx(i, j-1), ae*m.MuE)
			}
		}
	}
	return c
}

func validateAlloc(k, i, j int, ai, ae float64) {
	if ai < -1e-12 || ae < -1e-12 || ai > float64(i)+1e-12 || ai+ae > float64(k)+1e-9 {
		panic(fmt.Sprintf("ctmc: invalid allocation (%v,%v) in state (%d,%d) on k=%d", ai, ae, i, j, k))
	}
	if j == 0 && ae != 0 {
		panic("ctmc: elastic allocation with no elastic jobs")
	}
}

// Perf summarizes a stationary solution of a truncated policy chain.
type Perf struct {
	MeanNI, MeanNE, MeanN float64
	MeanTI, MeanTE, MeanT float64
	// BoundaryMass is the stationary probability of the truncation edge;
	// results are trustworthy when it is tiny. BoundaryMassI and
	// BoundaryMassE split it by which edge leaks, so the adaptive solver
	// can grow only the dimension that needs it.
	BoundaryMass                 float64
	BoundaryMassI, BoundaryMassE float64
	CapI, CapE                   int
}

// SolvePolicy computes stationary performance of the truncated chain,
// choosing the direct solver for small chains and Gauss-Seidel otherwise.
func SolvePolicy(m Model2D, alloc Alloc, capI, capE int) (Perf, error) {
	chain := PolicyChain(m, alloc, capI, capE)
	var pi []float64
	var err error
	if chain.N() <= 1500 {
		pi, err = chain.StationaryDirect()
	} else {
		pi, err = chain.StationaryIterative(1e-13, 200000)
	}
	if err != nil {
		return Perf{}, err
	}
	return perfFrom(m, pi, capI, capE), nil
}

// AutoSolvePolicy grows the truncation geometrically until the boundary mass
// drops below boundTol, so callers get controlled accuracy without guessing
// caps. It starts from caps scaled to the load's rough queue lengths.
func AutoSolvePolicy(m Model2D, alloc Alloc, boundTol float64) (Perf, error) {
	capI, capE := 64, 64
	for iter := 0; iter < 10; iter++ {
		p, err := SolvePolicy(m, alloc, capI, capE)
		if err != nil {
			return Perf{}, err
		}
		if p.BoundaryMass < boundTol {
			return p, nil
		}
		// Grow only the leaking dimension(s): under priority policies
		// one class's queue is typically orders of magnitude longer
		// than the other's.
		grew := false
		if p.BoundaryMassI >= boundTol/2 {
			capI *= 2
			grew = true
		}
		if p.BoundaryMassE >= boundTol/2 {
			capE *= 2
			grew = true
		}
		if !grew {
			capI *= 2
			capE *= 2
		}
	}
	return Perf{}, fmt.Errorf("ctmc: truncation still leaking after growth (caps %d,%d)", capI, capE)
}

// BatchTotalResponse returns the expected total response time, i.e. the
// expected integral of N(t) until the system empties, when startI inelastic
// and startJ elastic jobs are present at time 0 and there are no further
// arrivals (set LambdaI = LambdaE = 0 in the model). This is the exact
// quantity computed by hand in the proof of Theorem 6: for k = 2,
// muE = 2 muI and start (2, 1), IF yields (35/12)/muI while EF yields
// (33/12)/muI.
func BatchTotalResponse(m Model2D, alloc Alloc, startI, startJ int) (float64, error) {
	if m.LambdaI != 0 || m.LambdaE != 0 {
		return 0, fmt.Errorf("ctmc: BatchTotalResponse requires a no-arrivals model")
	}
	capE := startJ
	chain := PolicyChain(m, alloc, startI, capE)
	rewards, err := chain.AbsorptionReward(func(s int) float64 {
		i, j := s/(capE+1), s%(capE+1)
		return float64(i + j)
	})
	if err != nil {
		return 0, err
	}
	return rewards[startI*(capE+1)+startJ], nil
}

func perfFrom(m Model2D, pi []float64, capI, capE int) Perf {
	var p Perf
	p.CapI, p.CapE = capI, capE
	for i := 0; i <= capI; i++ {
		for j := 0; j <= capE; j++ {
			prob := pi[i*(capE+1)+j]
			p.MeanNI += float64(i) * prob
			p.MeanNE += float64(j) * prob
			if i == capI || j == capE {
				p.BoundaryMass += prob
			}
			if i == capI {
				p.BoundaryMassI += prob
			}
			if j == capE {
				p.BoundaryMassE += prob
			}
		}
	}
	p.MeanN = p.MeanNI + p.MeanNE
	p.MeanTI = p.MeanNI / m.LambdaI
	p.MeanTE = p.MeanNE / m.LambdaE
	p.MeanT = p.MeanN / (m.LambdaI + m.LambdaE)
	return p
}
