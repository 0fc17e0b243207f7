// Package ctmc provides a general continuous-time Markov chain engine:
// sparse chain construction, stationary solves (direct GTH elimination for
// small chains, Gauss-Seidel sweeps for large ones), and first-step analysis
// for absorbing chains.
//
// In this repository the engine plays three roles. It is the "ground truth"
// numeric baseline that the paper attributes to [7]: the 2D chain of
// Figure 1, truncated far from the origin, solved exactly (see
// PolicyChain in chain2d.go). It computes the Theorem 6 counterexample
// values 35/12 and 33/12 by first-step analysis. And it cross-validates the
// matrix-analytic pipeline of internal/qbd.
package ctmc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrNotConverged reports that an iterative solve hit its sweep limit.
var ErrNotConverged = errors.New("ctmc: iterative solver did not converge")

// Chain is a finite-state CTMC under construction. States are dense integer
// indices in [0, N).
type Chain struct {
	n    int
	out  [][]edge // outgoing transitions per state
	diag []float64
}

type edge struct {
	to   int
	rate float64
}

// New returns a chain with n states and no transitions.
func New(n int) *Chain {
	if n <= 0 {
		panic("ctmc: chain needs at least one state")
	}
	return &Chain{n: n, out: make([][]edge, n), diag: make([]float64, n)}
}

// N returns the number of states.
func (c *Chain) N() int { return c.n }

// AddRate adds a transition from -> to with the given rate. Rates
// accumulate if called twice for the same pair. Zero rates are ignored;
// negative rates and self-loops panic.
func (c *Chain) AddRate(from, to int, rate float64) {
	if rate == 0 {
		return
	}
	if rate < 0 {
		panic(fmt.Sprintf("ctmc: negative rate %v", rate))
	}
	if from == to {
		panic("ctmc: self-loop in a CTMC")
	}
	c.out[from] = append(c.out[from], edge{to: to, rate: rate})
	c.diag[from] -= rate
}

// Generator materializes the dense generator matrix Q (for small chains and
// tests).
func (c *Chain) Generator() *linalg.Matrix {
	q := linalg.NewMatrix(c.n, c.n)
	for s, edges := range c.out {
		for _, e := range edges {
			q.Add(s, e.to, e.rate)
		}
		q.Set(s, s, c.diag[s])
	}
	return q
}

// StationaryDirect solves pi Q = 0, sum(pi) = 1 with the GTH
// (Grassmann-Taksar-Heyman) elimination algorithm, which uses no
// subtractions and is numerically stable even for stiff chains. O(n^3):
// reserve for chains up to a few thousand states.
func (c *Chain) StationaryDirect() ([]float64, error) {
	n := c.n
	if n == 1 {
		return []float64{1}, nil
	}
	// Dense transition-rate matrix (off-diagonal only).
	q := make([][]float64, n)
	for i := range q {
		q[i] = make([]float64, n)
	}
	for s, edges := range c.out {
		for _, e := range edges {
			q[s][e.to] += e.rate
		}
	}
	// GTH elimination from the last state down.
	for l := n - 1; l >= 1; l-- {
		total := 0.0
		for j := 0; j < l; j++ {
			total += q[l][j]
		}
		if total <= 0 {
			return nil, fmt.Errorf("ctmc: state %d unreachable backward (reducible chain?)", l)
		}
		for i := 0; i < l; i++ {
			if q[i][l] == 0 {
				continue
			}
			f := q[i][l] / total
			for j := 0; j < l; j++ {
				if i != j {
					q[i][j] += f * q[l][j]
				}
			}
		}
	}
	// Back substitution.
	pi := make([]float64, n)
	pi[0] = 1
	for l := 1; l < n; l++ {
		total := 0.0
		for j := 0; j < l; j++ {
			total += q[l][j]
		}
		s := 0.0
		for i := 0; i < l; i++ {
			s += pi[i] * q[i][l]
		}
		pi[l] = s / total
	}
	normalize(pi)
	return pi, nil
}

// StationaryIterative solves pi Q = 0 by Gauss-Seidel sweeps on the balance
// equations, suitable for chains with 10^4..10^6 states. tol is the maximum
// absolute per-state change between sweeps; maxSweeps caps the work.
func (c *Chain) StationaryIterative(tol float64, maxSweeps int) ([]float64, error) {
	n := c.n
	// Build incoming adjacency once.
	in := make([][]edge, n)
	for s, edges := range c.out {
		for _, e := range edges {
			in[e.to] = append(in[e.to], edge{to: s, rate: e.rate})
		}
	}
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		delta := 0.0
		for s := 0; s < n; s++ {
			if c.diag[s] == 0 {
				continue // absorbing or isolated state
			}
			sum := 0.0
			for _, e := range in[s] {
				sum += pi[e.to] * e.rate
			}
			next := sum / -c.diag[s]
			if d := math.Abs(next - pi[s]); d > delta {
				delta = d
			}
			pi[s] = next
		}
		normalize(pi)
		if delta < tol {
			return pi, nil
		}
	}
	return nil, ErrNotConverged
}

// MeanReward returns sum_s pi[s] * reward(s).
func MeanReward(pi []float64, reward func(s int) float64) float64 {
	total := 0.0
	for s, p := range pi {
		total += p * reward(s)
	}
	return total
}

// AbsorptionReward solves first-step equations for an absorbing chain:
// given per-state reward accumulation rates reward(s) (absorbing states must
// have zero total outgoing rate), it returns for each state the expected
// total reward accumulated until absorption:
//
//	x_s = reward(s)/r_s + sum_t P(s->t) x_t,  r_s = total outgoing rate.
//
// Passing reward == number of jobs in state s computes the expected
// integral of N(t), i.e. the total response time of a finite job set — the
// quantity compared in the Theorem 6 counterexample.
func (c *Chain) AbsorptionReward(reward func(s int) float64) ([]float64, error) {
	n := c.n
	// Solve (-Q_TT) x = reward over transient states; absorbing states
	// (zero outgoing rate) have x = 0.
	transient := make([]int, 0, n)
	index := make([]int, n)
	for s := 0; s < n; s++ {
		index[s] = -1
		if c.diag[s] != 0 {
			index[s] = len(transient)
			transient = append(transient, s)
		}
	}
	m := len(transient)
	if m == 0 {
		return make([]float64, n), nil
	}
	a := linalg.NewMatrix(m, m)
	b := make([]float64, m)
	for row, s := range transient {
		a.Set(row, row, -c.diag[s])
		for _, e := range c.out[s] {
			if idx := index[e.to]; idx >= 0 {
				a.Add(row, idx, -e.rate)
			}
		}
		b[row] = reward(s)
	}
	x, err := linalg.Solve(a, b)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for row, s := range transient {
		out[s] = x[row]
	}
	return out, nil
}

func normalize(pi []float64) {
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	if sum <= 0 {
		return
	}
	for i := range pi {
		pi[i] /= sum
	}
}
