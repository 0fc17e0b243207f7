// Package ctmc provides a general continuous-time Markov chain engine:
// sparse chain construction, one exact stationary solver (GTH elimination
// restricted to the chain's band), and first-step analysis for absorbing
// chains.
//
// In this repository the engine plays three roles. It is the "ground truth"
// numeric baseline that the paper attributes to [7]: the 2D chain of
// Figure 1, truncated far from the origin, solved exactly (see
// PolicyChain in chain2d.go). It computes the Theorem 6 counterexample
// values 35/12 and 33/12 by first-step analysis. And it cross-validates the
// matrix-analytic pipeline of internal/qbd.
package ctmc

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

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

// band returns the chain's bandwidth: the largest |from - to| over its
// transitions (0 for a chain without transitions).
func (c *Chain) band() int {
	b := 0
	for s, edges := range c.out {
		for _, e := range edges {
			b = max(b, e.to-s, s-e.to)
		}
	}
	return b
}

// Stationary solves pi Q = 0, sum(pi) = 1 with the GTH
// (Grassmann-Taksar-Heyman) elimination algorithm, which uses no
// subtractions and is numerically stable even for stiff chains.
//
// The elimination runs inside the chain's band b, the largest |from - to|
// over its transitions: eliminating state l touches only states l-b..l-1,
// so its fill-in never leaves the band. Row s is stored as the window of
// columns s-b..s+b, which takes O(n·b) memory and O(n·b²) time. Every
// entry is a sum of non-negative products, so each term the dense n×n loop
// would add outside the band is an exact +0: the result is bit for bit the
// dense loop's.
//
// A non-finite pi (pi[l]/pi[0] overflows when the chain drifts away from
// state 0 faster than the truncation tames it) is an error.
func (c *Chain) Stationary() ([]float64, error) {
	n := c.n
	if n == 1 {
		return []float64{1}, nil
	}
	b := c.band()
	w := 2*b + 1
	// q[s*w+b+t-s] is the rate s -> t, so row s's columns lo..s-1 are
	// q[s*w+b+lo-s : s*w+b]. The diagonal slot q[s*w+b] is never read: the
	// updates below write it to keep their inner loop branch-free.
	q := make([]float64, n*w)
	for s, edges := range c.out {
		for _, e := range edges {
			q[s*w+b+e.to-s] += e.rate
		}
	}
	// GTH elimination from the last state down; total[l] is state l's rate
	// into the states still present when l is eliminated.
	total := make([]float64, n)
	for l := n - 1; l >= 1; l-- {
		lo := max(0, l-b)
		row := q[l*w+b+lo-l : l*w+b]
		t := 0.0
		for _, v := range row {
			t += v
		}
		if t <= 0 {
			return nil, fmt.Errorf("ctmc: state %d unreachable backward (reducible chain?)", l)
		}
		total[l] = t
		for i := lo; i < l; i++ {
			r := i*w + b - i
			if q[r+l] == 0 {
				continue
			}
			addScaled(q[r+lo:r+l], row, q[r+l]/t)
		}
	}
	// Back substitution.
	pi := make([]float64, n)
	pi[0] = 1
	sum := 1.0
	for l := 1; l < n; l++ {
		s := 0.0
		for i := max(0, l-b); i < l; i++ {
			s += pi[i] * q[i*w+b+l-i]
		}
		pi[l] = s / total[l]
		sum += pi[l]
	}
	if math.IsInf(sum, 0) || math.IsNaN(sum) {
		return nil, fmt.Errorf("ctmc: stationary distribution not finite: pi[l]/pi[0] overflows on this %d-state chain", n)
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// addScaled sets dst[k] += f*src[k] for every k < len(src), unrolled four
// ways; each entry still gets one rounded multiply and one rounded add.
func addScaled(dst, src []float64, f float64) {
	dst = dst[:len(src)]
	k := 0
	for ; k+4 <= len(src); k += 4 {
		d, s := dst[k:k+4:k+4], src[k:k+4:k+4]
		d[0] += f * s[0]
		d[1] += f * s[1]
		d[2] += f * s[2]
		d[3] += f * s[3]
	}
	for ; k < len(src); k++ {
		dst[k] += f * src[k]
	}
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
