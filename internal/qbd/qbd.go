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
// A0 + R A1 + R^2 A2 = 0. This package computes R by functional iteration
// (the tests keep logarithmic reduction as an independent reference), solves
// the finite boundary system, and exposes level moments in closed form.
//
// The functional iteration computes R^2 only on the columns that A2 reads,
// adds A0 to the product by A2's nonzero entries in one pass per row, and
// overwrites R in place, taking its convergence check from that product's
// stores; its buffers are allocated once per solve. The sp(R) check uses
// linalg.SpectralRadius's exact early exit. All of it gives the same bits
// as the textbook iteration that allocates at every step (package mrt's
// TestSolveRMatchesTextbookIteration pins that on the figures' chains).
package qbd

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ErrNotConverged reports that an R-matrix iteration hit its cap.
var ErrNotConverged = errors.New("qbd: R iteration did not converge")

// ErrUnstable reports sp(R) >= 1, i.e. the chain has no stationary
// distribution.
var ErrUnstable = errors.New("qbd: spectral radius of R is >= 1 (unstable chain)")

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

// Validate checks block shapes and that every level's generator rows sum to
// zero (within tol), which catches most construction bugs immediately.
func (c *Chain) Validate(tol float64) error {
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
	sums := make([]float64, m)
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
			if math.Abs(s) > tol {
				return fmt.Errorf("qbd: boundary level %d row %d sums to %g", l, i, s)
			}
		}
	}
	for i, s := range rowSums(c.A0, c.A1, c.A2) {
		if math.Abs(s) > tol {
			return fmt.Errorf("qbd: repeating row %d sums to %g", i, s)
		}
	}
	return nil
}

// SolveR computes the minimal nonnegative solution of A0 + R A1 + R^2 A2 = 0
// by functional iteration, R <- (A0 + R^2 A2)(-A1)^{-1} from R = 0: simple
// and robust, with linear convergence. Each iteration computes R^2 only on
// the columns that A2's nonzero rows select, adds A0 to R^2 A2 row by row,
// and overwrites R with the product, whose stores yield the change that
// stops the loop. The three buffers are allocated once per solve, so the
// cost does not grow with the iteration count.
func SolveR(a0, a1, a2 *linalg.Matrix, tol float64, maxIter int) (*linalg.Matrix, error) {
	negA1Inv, err := linalg.Inverse(linalg.Scale(-1, a1))
	if err != nil {
		return nil, fmt.Errorf("qbd: A1 singular: %w", err)
	}
	m := a0.Rows
	r := linalg.Mul(a0, negA1Inv) // R_1 with R_0 = 0
	r2 := linalg.NewMatrix(m, m)  // R^2 on columns lo..hi-1
	sum := linalg.NewMatrix(m, m) // A0 + R^2 A2
	nz := nonzeros(a2)
	lo, hi := 0, 0 // A2's nonzero entries lie in rows lo..hi-1
	if len(nz) > 0 {
		lo, hi = nz[0].row, nz[len(nz)-1].row+1
	}
	for iter := 0; iter < maxIter; iter++ {
		linalg.MulColsInto(r2, r, r, lo, hi)
		addSparseProduct(sum, a0, r2, nz)
		if linalg.MulColsInto(r, sum, negA1Inv, 0, m) < tol {
			return r, nil
		}
	}
	return nil, ErrNotConverged
}

// entry is one nonzero entry of a matrix.
type entry struct {
	row, col int
	v        float64
}

// nonzeros lists b's nonzero entries in row-major order. A2 is diagonal in
// the IF chain and has a single entry in the EF chain.
func nonzeros(b *linalg.Matrix) []entry {
	var nz []entry
	for k := 0; k < b.Rows; k++ {
		for j := 0; j < b.Cols; j++ {
			if v := b.At(k, j); v != 0 {
				nz = append(nz, entry{k, j, v})
			}
		}
	}
	return nz
}

// addSparseProduct stores c + a*b in dst, where nz = nonzeros(b), one row
// at a time: the row's product terms are summed from +0 in nz's row-major
// order, which is linalg.MulInto's order, and then added to c's entries,
// as AddM(c, Mul(a, b)) adds them. It reads a only in the columns that
// nz's rows name. The terms of b's zero entries, which it skips, are exact
// zeros for a finite a, so the product can differ from MulInto's only in
// the sign of an entry that is zero; adding c and then multiplying by
// (-A1)^{-1}, which skips zero entries of either sign, erase that sign.
func addSparseProduct(dst, c, a *linalg.Matrix, nz []entry) {
	m, n := dst.Cols, a.Cols
	ad, cd, od := a.Data, c.Data, dst.Data
	clear(od)
	for i := 0; i < dst.Rows; i++ {
		arow, crow := ad[i*n:i*n+n], cd[i*m:i*m+m]
		orow := od[i*m : i*m+m]
		for _, e := range nz {
			if av := arow[e.row]; av != 0 {
				orow[e.col] += av * e.v
			}
		}
		orow = orow[:len(crow)]
		for j, v := range crow {
			orow[j] = v + orow[j]
		}
	}
}

// Solution is the stationary distribution of a QBD chain.
type Solution struct {
	// Pi holds pi_0 .. pi_r where r = len(Boundary) is the first
	// repeating level.
	Pi [][]float64
	// R is the rate matrix of the geometric tail.
	R *linalg.Matrix
	// IminusRInv caches (I-R)^{-1}.
	IminusRInv *linalg.Matrix
}

// Solve computes the stationary distribution.
func (c *Chain) Solve() (*Solution, error) {
	if err := c.Validate(1e-8); err != nil {
		return nil, err
	}
	m := c.Phases
	r, err := SolveR(c.A0, c.A1, c.A2, 1e-14, 1_000_000)
	if err != nil {
		return nil, err
	}
	if sp := linalg.SpectralRadius(r, 2000); sp >= 1-1e-10 {
		return nil, fmt.Errorf("%w: sp(R)=%g", ErrUnstable, sp)
	}
	iminusRInv, err := linalg.Inverse(linalg.SubM(linalg.Identity(m), r))
	if err != nil {
		return nil, err
	}

	// Unknowns: pi_0..pi_rs stacked, rs = len(Boundary).
	rs := len(c.Boundary)
	n := (rs + 1) * m
	a := linalg.NewMatrix(n, n) // transposed balance equations: a * x = b
	b := make([]float64, n)

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
			addBlock(base, rs, linalg.AddM(c.A1, linalg.Mul(r, c.A2)))
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
	rowSum1 := linalg.MulVec(iminusRInv, ones(m))
	for p := 0; p < m; p++ {
		a.Set(last, rs*m+p, rowSum1[p])
	}
	b[last] = 1

	// The balance equations are transposed (variables are row vectors):
	// we built sum_p x_p block[p][q] = 0, i.e. A^T x = b with our fill
	// pattern, which is already what linalg.Solve expects.
	x, err := linalg.Solve(a, b)
	if err != nil {
		return nil, fmt.Errorf("qbd: boundary solve failed: %w", err)
	}
	sol := &Solution{R: r, IminusRInv: iminusRInv}
	for l := 0; l <= rs; l++ {
		sol.Pi = append(sol.Pi, x[l*m:(l+1)*m])
	}
	return sol, nil
}

// LevelProb returns the total stationary probability of level l.
func (s *Solution) LevelProb(l int) float64 {
	rs := len(s.Pi) - 1
	if l < rs {
		return sum(s.Pi[l])
	}
	// pi_{rs+n} = pi_rs R^n.
	v := append([]float64(nil), s.Pi[rs]...)
	for i := rs; i < l; i++ {
		v = linalg.VecMul(v, s.R)
	}
	return sum(v)
}

// PhaseMarginal returns the stationary phase distribution aggregated over
// all levels.
func (s *Solution) PhaseMarginal() []float64 {
	rs := len(s.Pi) - 1
	m := len(s.Pi[0])
	out := make([]float64, m)
	for l := 0; l < rs; l++ {
		for p, v := range s.Pi[l] {
			out[p] += v
		}
	}
	tail := linalg.VecMul(s.Pi[rs], s.IminusRInv)
	for p, v := range tail {
		out[p] += v
	}
	return out
}

// MeanLevel returns E[level] = sum_l l * P(level = l), evaluated in closed
// form over the geometric tail:
//
//	sum_{l<rs} l pi_l 1 + pi_rs [ rs (I-R)^{-1} + R (I-R)^{-2} ] 1.
func (s *Solution) MeanLevel() float64 {
	rs := len(s.Pi) - 1
	total := 0.0
	for l := 0; l < rs; l++ {
		total += float64(l) * sum(s.Pi[l])
	}
	m := len(s.Pi[0])
	tailA := linalg.Scale(float64(rs), s.IminusRInv)
	tailB := linalg.Mul(s.R, linalg.Mul(s.IminusRInv, s.IminusRInv))
	weights := linalg.MulVec(linalg.AddM(tailA, tailB), ones(m))
	for p, w := range weights {
		total += s.Pi[rs][p] * w
	}
	return total
}

// TotalProb returns the total probability mass (should be 1); exposed for
// verification in tests.
func (s *Solution) TotalProb() float64 {
	return sum(s.PhaseMarginal())
}

func ones(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}
