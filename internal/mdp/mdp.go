// Package mdp computes the average-cost-optimal allocation policy for the
// paper's model by relative value iteration on the uniformized, truncated
// two-class chain — the MDP-based numerical approach the paper attributes
// to [7] (Berg, Dorsman, Harchol-Balter 2018).
//
// It serves two purposes in this reproduction. First, it independently
// verifies Theorem 5: when muI >= muE the computed optimal policy achieves
// exactly Inelastic-First's mean number in system. Second, it explores the
// regime the paper leaves open (muI < muE, Section 6): the optimal policy
// there is neither IF nor EF but a state-dependent switching curve, which
// the OptimalPolicy type exposes for inspection.
//
// The model is a queueing.Model; the solved policy is a count rule
// (OptimalPolicy.Alloc) the exact chain can re-evaluate.
//
// The action space in state (i, j) is the number of servers given to
// inelastic jobs, aI in {0, ..., min(i, k)}, with the remaining k - aI
// servers going to the head-of-line elastic job when j > 0. Because the
// Bellman operator is linear in the allocation, an optimal stationary
// policy lies at a vertex of the allocation polytope, so this integer grid
// loses nothing relative to fractional allocations.
package mdp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/queueing"
)

// ErrNotConverged reports that value iteration hit its iteration cap.
var ErrNotConverged = errors.New("mdp: relative value iteration did not converge")

// Config configures the solver.
type Config struct {
	Model queueing.Model
	// CapI, CapE truncate the state space; arrivals at the boundary are
	// dropped, matching ctmc's truncated policy chain (ctmc.SolvePolicy).
	CapI, CapE int
	// Tol is the span-seminorm convergence threshold on the relative
	// value function (default 1e-10).
	Tol float64
}

// maxIter caps the value iterations; a solve that reaches it returns
// ErrNotConverged.
const maxIter = 1_000_000

// OptimalPolicy is the result of a solve.
type OptimalPolicy struct {
	CapI, CapE int
	K          int
	// AllocI[i][j] is the optimal number of servers for inelastic jobs in
	// state (i, j); elastic jobs receive K - AllocI[i][j] when j > 0.
	AllocI [][]int
	// MeanN is the optimal long-run average number of jobs in system.
	MeanN float64
	// MeanT is the optimal mean response time via Little's law.
	MeanT float64
	Iters int
}

// Alloc is the solved policy as the exact chain's count rule (ctmc.Alloc),
// so it can be re-evaluated with the stationary chain solver.
func (p *OptimalPolicy) Alloc(k, i, j int) (float64, float64) {
	ci := min(i, p.CapI)
	cj := min(j, p.CapE)
	ai := float64(p.AllocI[ci][cj])
	if ai > float64(i) {
		ai = float64(i)
	}
	ae := 0.0
	if j > 0 {
		ae = float64(k) - ai
	}
	return ai, ae
}

// MatchesIF reports the fraction of states in the inner half of the
// truncated grid in which the optimal allocation equals Inelastic-First's.
// The outer half is excluded deliberately: those states carry vanishing
// stationary probability, the relative value function converges far more
// slowly there, and dropped boundary arrivals distort the decision — so
// action comparisons in the far tail are noise.
func (p *OptimalPolicy) MatchesIF() float64 {
	match, total := 0, 0
	for i := 1; i < p.CapI/2; i++ {
		for j := 0; j < p.CapE/2; j++ {
			ifAlloc := min(i, p.K)
			total++
			if p.AllocI[i][j] == ifAlloc {
				match++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(match) / float64(total)
}

// Solve runs relative value iteration.
func Solve(cfg Config) (*OptimalPolicy, error) {
	m := cfg.Model
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("mdp: %w", err)
	}
	if m.Rho() >= 1 {
		return nil, fmt.Errorf("mdp: unstable model (rho=%g)", m.Rho())
	}
	if cfg.CapI < m.K || cfg.CapE < 1 {
		return nil, fmt.Errorf("mdp: truncation caps too small")
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-10
	}

	nI, nJ := cfg.CapI+1, cfg.CapE+1
	idx := func(i, j int) int { return i*nJ + j }
	n := nI * nJ

	// Uniformization constant: total event rate is at most
	// lambdaI + lambdaE + k*max(muI, muE).
	uni := m.LambdaI + m.LambdaE + float64(m.K)*math.Max(m.MuI, m.MuE)

	h := make([]float64, n)
	next := make([]float64, n)
	alloc := make([][]int, nI)
	for i := range alloc {
		alloc[i] = make([]int, nJ)
	}

	var gain float64
	for iter := 1; iter <= maxIter; iter++ {
		for i := 0; i < nI; i++ {
			for j := 0; j < nJ; j++ {
				s := idx(i, j)
				// Arrival terms are action-independent.
				base := float64(i+j) / uni // stage cost: E[N] contribution
				pIn := m.LambdaI / uni
				pEn := m.LambdaE / uni
				arr := 0.0
				if i < cfg.CapI {
					arr += pIn * h[idx(i+1, j)]
				} else {
					arr += pIn * h[s]
				}
				if j < cfg.CapE {
					arr += pEn * h[idx(i, j+1)]
				} else {
					arr += pEn * h[s]
				}
				rest := 1 - pIn - pEn

				// Iterate from the largest inelastic allocation down
				// so that ties (ubiquitous when muI = muE, where many
				// allocations are co-optimal) resolve toward the
				// GREEDY* convention of minimal elastic allocation.
				bestVal := math.Inf(1)
				maxA := min(i, m.K)
				bestA := maxA
				for a := maxA; a >= 0; a-- {
					aI := float64(a)
					aE := 0.0
					if j > 0 {
						aE = float64(m.K) - aI
					}
					pID := aI * m.MuI / uni
					pED := aE * m.MuE / uni
					val := arr
					if i > 0 {
						val += pID * h[idx(i-1, j)]
					}
					if j > 0 {
						val += pED * h[idx(i, j-1)]
					}
					val += (rest - pID - pED) * h[s]
					if val < bestVal-1e-15 {
						bestVal, bestA = val, a
					}
				}
				next[s] = base + bestVal
				alloc[i][j] = bestA
			}
		}
		// Span seminorm of the increment decides convergence; the gain is
		// the (asymptotically constant) increment times the
		// uniformization rate.
		lo, hi := math.Inf(1), math.Inf(-1)
		for s := 0; s < n; s++ {
			d := next[s] - h[s]
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		gain = (lo + hi) / 2 * uni
		// Re-center on the empty state to keep values bounded.
		offset := next[0]
		for s := 0; s < n; s++ {
			h[s] = next[s] - offset
		}
		if hi-lo < tol {
			meanN := gain
			lambda := m.LambdaI + m.LambdaE
			return &OptimalPolicy{
				CapI: cfg.CapI, CapE: cfg.CapE, K: m.K,
				AllocI: alloc,
				MeanN:  meanN,
				MeanT:  meanN / lambda,
				Iters:  iter,
			}, nil
		}
	}
	return nil, ErrNotConverged
}
