// Package qbd solves quasi-birth-death Markov chains with matrix-analytic
// methods — the Section 5.3 machinery of the paper.
//
// A QBD is a CTMC whose states factor into a level (unbounded, here the
// queue length of one job class) and a phase (finite, here the busy-period
// Coxian stage plus any boundary structure). For levels at and above a
// repeating threshold the generator blocks are level-independent:
//
//	A0 (level up), A1 (local, with diagonal), A2 (level down).
//
// The stationary vector then has the matrix-geometric form
// pi_{r+n} = pi_r R^n, where R is the minimal nonnegative solution of
// A0 + R A1 + R^2 A2 = 0. This package computes R by logarithmic reduction
// (package mrt's tests keep the functional iteration as an independent
// reference), solves the finite boundary system, and exposes level moments
// in closed form.
//
// Logarithmic reduction converges quadratically: a set of the paper's
// figures takes 6 to 12 doublings per solve where the functional iteration
// took 277 steps on average. Each doubling runs linalg.MulInto and
// linalg.InverseInto into a Workspace's buffers, and gives the same bits as
// the textbook loop that allocates every product and inverse (package mrt's
// TestSolveRMatchesTextbookLogReduction pins that on the figures' chains).
//
// A Workspace holds every buffer a solve touches, on storage that only
// grows, so a caller that keeps one (package mrt keeps a sync.Pool of them)
// solves chain after chain, of any size it has already seen, without
// allocating. The Solution it returns lives in those buffers until its next
// solve. Chain.Solve and SolveR run on a fresh Workspace.
//
// Solve decides stability before it looks for R, by the mean drift of the
// level (Neuts; Latouche & Ramaswami): when the phase generator
// A = A0 + A1 + A2 has one closed class, with stationary vector alpha, the
// chain is positive recurrent exactly when alpha A0 1 < alpha A2 1. So an
// unstable chain never runs the reduction, and neither does a stable chain
// too close to critical load for it: Solve refuses a relative drift margin
// (down - up)/down below minDriftMargin, where the solution's error grows
// with no sign of it.
package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrNotConverged reports that logarithmic reduction hit maxDoublings.
var ErrNotConverged = errors.New("qbd: logarithmic reduction did not converge")

// ErrUnstable reports that the level does not drift down in the repeating
// levels, i.e. the chain has no stationary distribution.
var ErrUnstable = errors.New("qbd: the level does not drift down (unstable chain)")

// errNearCritical reports a stable chain whose relative drift margin is
// below minDriftMargin.
var errNearCritical = errors.New("qbd: too close to critical load to solve accurately")

// BoundaryLevel holds the generator blocks of one non-repeating level l:
// U maps level l to l+1, Local is the within-level block including the
// diagonal, and D maps level l to l-1 (nil for level 0).
type BoundaryLevel struct {
	U, Local, D *linalg.Matrix
}

// Chain is a QBD specification. Boundary lists levels 0..len(Boundary)-1;
// levels >= len(Boundary) repeat with blocks A0, A1, A2. The level
// len(Boundary) is the first repeating level; its inbound down-block (from
// level len(Boundary)+1) is A2 and its inbound up-block is the last boundary
// level's U.
type Chain struct {
	Phases     int
	Boundary   []BoundaryLevel
	A0, A1, A2 *linalg.Matrix
}

// rowSumTol is how far from zero Validate lets a generator row sum.
const rowSumTol = 1e-8

// Validate checks block shapes and that every level's generator rows sum to
// zero (within rowSumTol), which catches most construction bugs
// immediately.
func (c *Chain) Validate() error { return new(Workspace).validate(c) }

// validate is Validate, summing rows into w's buffer.
func (w *Workspace) validate(c *Chain) error {
	m := c.Phases
	if m <= 0 {
		return fmt.Errorf("qbd: non-positive phase count")
	}
	// check names Boundary[level].name, or name for level < 0; the name is
	// only formatted on failure.
	check := func(name string, level int, mat *linalg.Matrix) error {
		if mat != nil && mat.Rows == m && mat.Cols == m {
			return nil
		}
		if level >= 0 {
			name = fmt.Sprintf("Boundary[%d].%s", level, name)
		}
		if mat == nil {
			return fmt.Errorf("qbd: missing block %s", name)
		}
		return fmt.Errorf("qbd: block %s is %dx%d, want %dx%d", name, mat.Rows, mat.Cols, m, m)
	}
	for _, b := range [...]struct {
		name string
		mat  *linalg.Matrix
	}{{"A0", c.A0}, {"A1", c.A1}, {"A2", c.A2}} {
		if err := check(b.name, -1, b.mat); err != nil {
			return err
		}
	}
	if len(c.Boundary) == 0 {
		return fmt.Errorf("qbd: need at least boundary level 0")
	}
	// Row sums per level, into one buffer.
	sums := grow(&w.sums, m)
	rowSums := func(mats ...*linalg.Matrix) []float64 {
		clear(sums)
		for _, mat := range mats {
			if mat == nil {
				continue
			}
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					sums[i] += mat.At(i, j)
				}
			}
		}
		return sums
	}
	for l, b := range c.Boundary {
		if err := check("U", l, b.U); err != nil {
			return err
		}
		if err := check("Local", l, b.Local); err != nil {
			return err
		}
		if l == 0 {
			if b.D != nil {
				return fmt.Errorf("qbd: level 0 cannot have a down block")
			}
		} else if err := check("D", l, b.D); err != nil {
			return err
		}
		for i, s := range rowSums(b.U, b.Local, b.D) {
			if math.Abs(s) > rowSumTol {
				return fmt.Errorf("qbd: boundary level %d row %d sums to %g", l, i, s)
			}
		}
	}
	for i, s := range rowSums(c.A0, c.A1, c.A2) {
		if math.Abs(s) > rowSumTol {
			return fmt.Errorf("qbd: repeating row %d sums to %g", i, s)
		}
	}
	return nil
}

// driftTol is the relative margin by which Solve wants the level's mean
// upward drift below its downward drift before it calls the chain stable.
// For the one-phase M/M/1 chain their ratio is lambda/mu, which is sp(R).
const driftTol = 1e-10

// minDriftMargin is the smallest relative drift margin (down - up)/down of
// a stable chain that Solve accepts. Below it the solve loses accuracy
// without an error. Against the preemptive-priority closed form, the
// low-priority class's E[T] on package mrt's k-1 IF and EF chains was off
// by at most 7.9e-8 relative at margins from 1.1e-4 up, but by 1.5e-7 at
// 5e-5, 1.1e-6 at 1e-5, 3.4e-4 at 1.25e-6 and 5.3e-3 at 2e-7. The paper's
// figure chains keep a margin of at least 1.25e-3.
const minDriftMargin = 1e-4

// Drift returns the mean rates at which the level rises and falls in the
// repeating levels, alpha A0 1 and alpha A2 1, where alpha solves
// alpha A = 0 and alpha 1 = 1 for the phase generator A = A0 + A1 + A2.
// Transient phases are allowed (alpha is 0 there), but an A with more than
// one closed class has no unique alpha and is refused: every phase must
// reach, over A's positive off-diagonal rates, the phase where alpha is
// largest, which then lies in every closed class. c must pass Validate.
func (c *Chain) Drift() (up, down float64, err error) { return new(Workspace).drift(c) }

// drift is Drift, in w's buffers.
func (w *Workspace) drift(c *Chain) (up, down float64, err error) {
	m := c.Phases
	rate := func(i, j int) float64 { return c.A0.At(i, j) + c.A1.At(i, j) + c.A2.At(i, j) }
	// Row j of A's transpose is equation j of alpha A = 0; the last one,
	// implied by the others since A 1 = 0, gives way to alpha 1 = 1.
	at, b, alpha := shape(&w.at, m, m), grow(&w.rhs, m), grow(&w.alpha, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m-1; j++ {
			at.Set(j, i, rate(i, j))
		}
		at.Set(m-1, i, 1)
	}
	b[m-1] = 1
	err = linalg.SolveInto(alpha, at, b, &w.lu)
	top := 0 // phase 0 when the solve failed
	if err == nil {
		for i, v := range alpha {
			if v > alpha[top] {
				top = i
			}
		}
	}
	// One backward search from top over the rates into each reached phase.
	reach, stack := grow(&w.reach, m), grow(&w.stack, m)[:1]
	reach[top], stack[0] = true, top
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range reach {
			if !reach[i] && rate(i, j) > 0 {
				reach[i] = true
				stack = append(stack, i)
			}
		}
	}
	for i, ok := range reach {
		if !ok {
			return 0, 0, fmt.Errorf("qbd: phase %d cannot reach phase %d under A0+A1+A2, which has more than one closed class", i, top)
		}
	}
	if err != nil {
		return 0, 0, fmt.Errorf("qbd: stationary vector of A0+A1+A2: %w", err)
	}
	for i, ai := range alpha {
		for j := 0; j < m; j++ {
			up += ai * c.A0.At(i, j)
			down += ai * c.A2.At(i, j)
		}
	}
	return up, down, nil
}

// maxDoublings caps logarithmic reduction. Doubling d accounts for first
// passages over up to 2^d levels, so 64 doublings reach far beyond any
// chain that converges at all; the paper's chains need at most 20 up to
// rho 0.9999.
const maxDoublings = 64

// SolveR computes the minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0
// by the logarithmic reduction of Latouche & Ramaswami. It finds G, the
// minimal solution of A2 + A1 G + A0 G^2 = 0 (the first passage one level
// down), then returns R = A0 (-(A1 + A0 G))^{-1}. With N = (-A1)^{-1},
// H = N A0, L = N A2, G = L and T = H, each doubling sets
//
//	U = H L + L H, L <- (I-U)^{-1} L^2, G <- G + T L,
//
// and the loop stops once G moves by less than tol (MaxAbsDiff); the error
// shrinks quadratically. Only a doubling that goes on then sets
// H <- (I-U)^{-1} H^2 and T <- T H, which the last one would throw away.
// A chain that has not converged after maxDoublings gets ErrNotConverged.
// SolveR runs on a fresh Workspace, so its R is the caller's.
func SolveR(a0, a1, a2 *linalg.Matrix, tol float64) (*linalg.Matrix, error) {
	return new(Workspace).solveR(a0, a1, a2, tol)
}

// solveR is SolveR in w's buffers; R is w.r.
func (w *Workspace) solveR(a0, a1, a2 *linalg.Matrix, tol float64) (*linalg.Matrix, error) {
	m := a0.Rows
	buf := func(b *linalg.Matrix) *linalg.Matrix { return shape(b, m, m) }
	negA1Inv, h, l, g, t := buf(&w.negA1Inv), buf(&w.h), buf(&w.l), buf(&w.g), buf(&w.t)
	eye, u, iu, p, next := buf(&w.eye), buf(&w.u), buf(&w.iu), buf(&w.p), buf(&w.next)
	for i := 0; i < m; i++ {
		eye.Set(i, i, 1)
	}
	if err := linalg.InverseInto(negA1Inv, linalg.ScaleInto(u, -1, a1), &w.lu); err != nil {
		return nil, fmt.Errorf("qbd: A1 singular: %w", err)
	}
	linalg.MulInto(h, negA1Inv, a0)
	linalg.MulInto(l, negA1Inv, a2)
	copy(g.Data, l.Data)
	copy(t.Data, h.Data)
	for range maxDoublings {
		linalg.MulInto(u, h, l)
		linalg.MulInto(p, l, h)
		linalg.AddInto(u, u, p)
		linalg.SubInto(u, eye, u)
		if err := linalg.InverseInto(iu, u, &w.lu); err != nil {
			return nil, fmt.Errorf("qbd: log-reduction pivot singular: %w", err)
		}
		linalg.MulInto(p, l, l)
		linalg.MulInto(l, iu, p)
		linalg.MulInto(p, t, l)
		linalg.AddInto(next, g, p)
		done := linalg.MaxAbsDiff(next, g) < tol
		g, next = next, g
		if done {
			linalg.MulInto(p, a0, g)
			if err := linalg.InverseInto(iu, linalg.ScaleInto(u, -1, linalg.AddInto(u, a1, p)), &w.lu); err != nil {
				return nil, fmt.Errorf("qbd: R conversion singular: %w", err)
			}
			return linalg.MulInto(buf(&w.r), a0, iu), nil
		}
		linalg.MulInto(p, h, h)
		linalg.MulInto(h, iu, p)
		linalg.MulInto(p, t, h)
		t, p = p, t
	}
	return nil, ErrNotConverged
}

// Solution is the stationary distribution of a QBD chain. Its slices and
// matrices live in the Workspace that solved it, until that Workspace's
// next solve.
type Solution struct {
	// Pi holds pi_0 .. pi_r where r = len(Boundary) is the first
	// repeating level.
	Pi [][]float64
	// R is the rate matrix of the geometric tail.
	R *linalg.Matrix
	// IminusRInv caches (I-R)^{-1}.
	IminusRInv *linalg.Matrix

	w *Workspace // the solver, whose buffers MeanLevel also uses
}

// Workspace holds every buffer a solve touches. Each buffer's storage only
// grows, so once a Workspace has solved a chain of some size, solving any
// chain up to that size allocates nothing. Its zero value is ready to use;
// it is not safe for concurrent use.
type Workspace struct {
	// Validate's row sums.
	sums []float64
	// The drift check: A's transpose with its last equation replaced, the
	// right-hand side, alpha, and the backward search's reach set and stack.
	at         linalg.Matrix
	rhs, alpha []float64
	reach      []bool
	stack      []int
	// SolveR's buffers and R, and the m x m LU that the drift check, SolveR
	// and (I-R)^{-1} share.
	negA1Inv, h, l, g, t, eye, u, iu, p, next, r linalg.Matrix
	lu                                           linalg.LU
	// (I-R)^{-1}, A1 + R A2, and the boundary system a x = b with its own
	// LU.
	iminusRInv, tail, a linalg.Matrix
	aLU                 linalg.LU
	b, x                []float64
	// A vector of ones, and the row sums taken against it.
	one, rowSums []float64
	pi           [][]float64
	sol          Solution
}

// Solve computes the stationary distribution of c in w's buffers. It
// returns ErrUnstable, before any R is sought, unless the level's mean
// upward drift is below (1 - driftTol) times its downward drift (see
// Drift), and refuses a stable chain whose relative drift margin
// (down - up)/down is below minDriftMargin with an error that names the
// margin. The Solution aliases w: it stays valid until w's next solve.
func (w *Workspace) Solve(c *Chain) (*Solution, error) {
	if err := w.validate(c); err != nil {
		return nil, err
	}
	up, down, err := w.drift(c)
	if err != nil {
		return nil, err
	}
	if !(up < (1-driftTol)*down) {
		return nil, fmt.Errorf("%w: mean drift up %g, down %g", ErrUnstable, up, down)
	}
	if margin := (down - up) / down; margin < minDriftMargin {
		return nil, fmt.Errorf("%w: relative drift margin %.3g is below %g", errNearCritical, margin, minDriftMargin)
	}
	m := c.Phases
	r, err := w.solveR(c.A0, c.A1, c.A2, 1e-14)
	if err != nil {
		return nil, err
	}
	// (I-R)^{-1}, with SolveR's identity and a scratch buffer of its.
	iminusRInv := shape(&w.iminusRInv, m, m)
	if err := linalg.InverseInto(iminusRInv, linalg.SubInto(&w.u, &w.eye, r), &w.lu); err != nil {
		return nil, err
	}

	// Unknowns: pi_0..pi_rs stacked, rs = len(Boundary).
	rs := len(c.Boundary)
	n := (rs + 1) * m
	a := shape(&w.a, n, n) // transposed balance equations: a * x = b
	b := grow(&w.b, n)

	// Column block for the balance equations of level l:
	//   sum_l' pi_l' Q_{l',l} = 0.
	// Build as equations over x = (pi_0,...,pi_rs).
	eq := 0
	addBlock := func(eqBase int, varLevel int, block *linalg.Matrix) {
		if block == nil {
			return
		}
		for p := 0; p < m; p++ { // phase of varLevel (row of block)
			for q := 0; q < m; q++ { // phase of equation level (col)
				a.Add(eqBase+q, varLevel*m+p, block.At(p, q))
			}
		}
	}
	downInto := func(l int) *linalg.Matrix { // block from level l+1 down into l
		if l+1 < rs {
			return c.Boundary[l+1].D
		}
		return c.A2
	}
	localOf := func(l int) *linalg.Matrix {
		if l < rs {
			return c.Boundary[l].Local
		}
		return c.A1
	}
	upInto := func(l int) *linalg.Matrix { // block from level l-1 up into l
		if l-1 < rs {
			return c.Boundary[l-1].U
		}
		return c.A0
	}
	for l := 0; l <= rs; l++ {
		base := eq
		if l > 0 {
			addBlock(base, l-1, upInto(l))
		}
		if l < rs {
			addBlock(base, l, localOf(l))
			if l+1 <= rs {
				addBlock(base, l+1, downInto(l))
			}
		} else {
			// Level rs balance folds the geometric tail:
			// pi_{rs-1} U + pi_rs (A1 + R A2) = 0.
			tail := shape(&w.tail, m, m)
			addBlock(base, rs, linalg.AddInto(tail, c.A1, linalg.MulInto(&w.p, r, c.A2)))
		}
		eq += m
	}
	// Replace the last equation with normalization:
	// sum_{l<rs} pi_l 1 + pi_rs (I-R)^{-1} 1 = 1.
	last := n - 1
	for j := 0; j < n; j++ {
		a.Set(last, j, 0)
	}
	for l := 0; l < rs; l++ {
		for p := 0; p < m; p++ {
			a.Set(last, l*m+p, 1)
		}
	}
	rowSum1 := linalg.MulVecInto(grow(&w.rowSums, m), iminusRInv, w.ones(m))
	for p := 0; p < m; p++ {
		a.Set(last, rs*m+p, rowSum1[p])
	}
	b[last] = 1

	// The balance equations are transposed (variables are row vectors):
	// we built sum_p x_p block[p][q] = 0, i.e. A^T x = b with our fill
	// pattern, which is already what linalg.SolveInto expects.
	x := grow(&w.x, n)
	if err := linalg.SolveInto(x, a, b, &w.aLU); err != nil {
		return nil, fmt.Errorf("qbd: boundary solve failed: %w", err)
	}
	pi := grow(&w.pi, rs+1)
	for l := range pi {
		pi[l] = x[l*m : (l+1)*m]
	}
	w.sol = Solution{Pi: pi, R: r, IminusRInv: iminusRInv, w: w}
	return &w.sol, nil
}

// Solve computes the stationary distribution on a fresh Workspace (see
// Workspace.Solve).
func (c *Chain) Solve() (*Solution, error) { return new(Workspace).Solve(c) }

// MeanLevel returns E[level] = sum_l l * P(level = l), evaluated in closed
// form over the geometric tail:
//
//	sum_{l<rs} l pi_l 1 + pi_rs [ rs (I-R)^{-1} + R (I-R)^{-2} ] 1.
//
// It computes in the buffers of the Workspace that made s, so, like that
// Workspace, it is not safe for concurrent use.
func (s *Solution) MeanLevel() float64 {
	rs := len(s.Pi) - 1
	total := 0.0
	for l := 0; l < rs; l++ {
		total += float64(l) * sum(s.Pi[l])
	}
	m, w := len(s.Pi[0]), s.w
	// SolveR's scratch buffers are free once R is found.
	tailA := linalg.ScaleInto(&w.u, float64(rs), s.IminusRInv)
	tailB := linalg.MulInto(&w.iu, s.R, linalg.MulInto(&w.p, s.IminusRInv, s.IminusRInv))
	weights := linalg.MulVecInto(grow(&w.rowSums, m), linalg.AddInto(tailA, tailA, tailB), w.ones(m))
	for p, wt := range weights {
		total += s.Pi[rs][p] * wt
	}
	return total
}

// ones returns a vector of n ones in w's storage.
func (w *Workspace) ones(n int) []float64 {
	v := grow(&w.one, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

// grow sets *s to n zero entries on its storage, allocating only when its
// capacity is short of n, and returns it.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	clear(*s)
	return *s
}

// shape makes *a a zero rows x cols matrix on its storage, like grow, and
// returns a.
func shape(a *linalg.Matrix, rows, cols int) *linalg.Matrix {
	a.Data = grow(&a.Data, rows*cols)
	a.Rows, a.Cols = rows, cols
	return a
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
