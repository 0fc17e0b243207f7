package ctmc

import (
	"fmt"

	"repro/internal/queueing"
)

// Alloc is a stationary deterministic allocation rule: the total servers
// given to inelastic and to elastic jobs in state (i, j) on k servers. It is
// the pi_I(i,j), pi_E(i,j) of Section 2. policy.CountRule turns a
// simulator policy into one; mdp.OptimalPolicy.Alloc is another.
type Alloc func(k, i, j int) (ai, ae float64)

// lattice numbers the states (i, j), i <= capI, j <= capE, of a truncated
// policy chain. Every transition moves one step along one axis, so a chain
// numbered with axis a innermost has band (cap_a + 1); newLattice puts the
// shorter axis innermost, and with capE <= capI that is the row-major
// numbering i*(capE+1) + j.
type lattice struct {
	capI, capE int
	iInner     bool
}

func newLattice(capI, capE int) lattice { return lattice{capI, capE, capE > capI} }

func (g lattice) index(i, j int) int {
	if g.iInner {
		return j*(g.capI+1) + i
	}
	return i*(g.capE+1) + j
}

func (g lattice) states() int { return (g.capI + 1) * (g.capE + 1) }

// bandBytes is the memory Stationary takes for the chain's band when the
// shorter axis is innermost.
func (g lattice) bandBytes() int {
	b := min(g.capI, g.capE) + 1
	return g.states() * (2*b + 1) * 8
}

// chain builds the truncated 2D chain of Figure 1 on g for the given
// allocation rule. Arrivals that would cross the truncation boundary are
// dropped (their rate is simply absent), so the result is exact for the
// truncated chain and approximates the infinite chain from below in load.
func (g lattice) chain(m queueing.Model, alloc Alloc) *Chain {
	c := New(g.states())
	for i := 0; i <= g.capI; i++ {
		for j := 0; j <= g.capE; j++ {
			s := g.index(i, j)
			if i < g.capI {
				c.AddRate(s, g.index(i+1, j), m.LambdaI)
			}
			if j < g.capE {
				c.AddRate(s, g.index(i, j+1), m.LambdaE)
			}
			ai, ae := alloc(m.K, i, j)
			validateAlloc(m.K, i, j, ai, ae)
			if i > 0 && ai > 0 {
				c.AddRate(s, g.index(i-1, j), ai*m.MuI)
			}
			if j > 0 && ae > 0 {
				c.AddRate(s, g.index(i, j-1), ae*m.MuE)
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

// SolvePolicy computes stationary performance of the truncated chain by one
// exact solve, Chain.Stationary: O(n·b²) time and O(n·b) memory for
// n = (capI+1)(capE+1) states and band b = min(capI, capE)+1.
func SolvePolicy(m queueing.Model, alloc Alloc, capI, capE int) (Perf, error) {
	g := newLattice(capI, capE)
	pi, err := g.chain(m, alloc).Stationary()
	if err != nil {
		return Perf{}, err
	}
	return g.perf(m, pi), nil
}

// maxBandBytes bounds the band storage of a chain AutoSolvePolicy builds.
// 1 GiB is about four times the 274 MB band of the largest chain a caller
// in this repository solves (examples/hpcmalleable reaches caps 128 and
// 1024); without it the doubling cap alone would allow caps 64 and 65,536,
// about 4.5 GB of band.
const maxBandBytes = 1 << 30

// AutoSolvePolicy grows the truncation geometrically until the boundary mass
// drops below boundTol, so callers get controlled accuracy without guessing
// caps. It starts from caps 64 × 64 and doubles the leaking axis, at most
// ten solves in all, and never builds a chain whose band storage exceeds
// maxBandBytes. When it has to stop, or when the grown chain's solve fails
// (an unstable chain overflows pi), the error names the caps it last solved.
func AutoSolvePolicy(m queueing.Model, alloc Alloc, boundTol float64) (Perf, error) {
	return autoSolvePolicy(m, alloc, boundTol, maxBandBytes)
}

func autoSolvePolicy(m queueing.Model, alloc Alloc, boundTol float64, maxBand int) (Perf, error) {
	capI, capE := 64, 64
	var last Perf // the previous solve, whose truncation leaked
	for solves := 1; ; solves++ {
		p, err := SolvePolicy(m, alloc, capI, capE)
		if err != nil {
			if solves > 1 {
				err = leaking(last, fmt.Errorf("caps %d,%d: %w", capI, capE, err))
			}
			return Perf{}, err
		}
		if p.BoundaryMass < boundTol {
			return p, nil
		}
		last = p
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
		if solves == 10 {
			return Perf{}, leaking(last, fmt.Errorf("no growth left after %d solves", solves))
		}
		if need := newLattice(capI, capE).bandBytes(); need > maxBand {
			return Perf{}, leaking(last, fmt.Errorf("caps %d,%d need %d bytes of band storage, over the %d-byte bound", capI, capE, need, maxBand))
		}
	}
}

// leaking reports that the truncation at the last solved caps still leaked
// and why it was not grown further.
func leaking(last Perf, why error) error {
	return fmt.Errorf("ctmc: truncation still leaking at caps %d,%d (boundary mass %.3g): %w",
		last.CapI, last.CapE, last.BoundaryMass, why)
}

// BatchTotalResponse returns the expected total response time, i.e. the
// expected integral of N(t) until the system empties, when startI inelastic
// and startJ elastic jobs are present at time 0 and there are no further
// arrivals (set LambdaI = LambdaE = 0 in the model). This is the exact
// quantity computed by hand in the proof of Theorem 6: for k = 2,
// muE = 2 muI and start (2, 1), IF yields (35/12)/muI while EF yields
// (33/12)/muI.
func BatchTotalResponse(m queueing.Model, alloc Alloc, startI, startJ int) (float64, error) {
	if m.LambdaI != 0 || m.LambdaE != 0 {
		return 0, fmt.Errorf("ctmc: BatchTotalResponse requires a no-arrivals model")
	}
	g := newLattice(startI, startJ)
	jobs := make([]float64, g.states())
	for i := 0; i <= startI; i++ {
		for j := 0; j <= startJ; j++ {
			jobs[g.index(i, j)] = float64(i + j)
		}
	}
	rewards, err := g.chain(m, alloc).AbsorptionReward(func(s int) float64 { return jobs[s] })
	if err != nil {
		return 0, err
	}
	return rewards[g.index(startI, startJ)], nil
}

// perf summarizes pi, the stationary distribution of the chain numbered by g.
func (g lattice) perf(m queueing.Model, pi []float64) Perf {
	var p Perf
	p.CapI, p.CapE = g.capI, g.capE
	for i := 0; i <= g.capI; i++ {
		for j := 0; j <= g.capE; j++ {
			prob := pi[g.index(i, j)]
			p.MeanNI += float64(i) * prob
			p.MeanNE += float64(j) * prob
			if i == g.capI || j == g.capE {
				p.BoundaryMass += prob
			}
			if i == g.capI {
				p.BoundaryMassI += prob
			}
			if j == g.capE {
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
