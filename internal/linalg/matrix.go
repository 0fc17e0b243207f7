// Package linalg provides the small dense linear-algebra kernel used by the
// matrix-analytic solver and the CTMC engine.
//
// The matrices in this repository are tiny by numerical-computing standards
// (the QBD phase dimension is k+2 for the Inelastic-First chain and 3 for
// the Elastic-First chain), so clarity and numerical robustness win almost
// everywhere: LU with partial pivoting and explicit error reporting for
// singular systems. The exception is the one multiplication kernel,
// MulInto (Mul allocates the result and calls it). Package qbd's
// logarithmic reduction runs it eight times per doubling, for some 9,600
// doublings per set of the paper's figures, and there it is the largest
// single cost. So it is register-blocked: it keeps the sums of two rows by
// up to four columns in local variables while it runs over the inner
// index. Blocking changes which sums are in flight, never an entry's
// arithmetic. Each entry is accumulated from +0 over the inner index in
// ascending order, skipping a's zero entries, with one rounding per
// multiply and per add, and every multiply-add keeps the acc += x*y form.
// So every caller gets the textbook triple loop's bits, and a compiler that
// fuses x*y+z fuses the same operations. The *Into functions write into the
// caller's buffers, each with the bits of the function it mirrors
// (InverseInto and SolveInto factor into a caller's LU, whose storage only
// grows), so package qbd's solves allocate nothing once their buffers have
// held the largest chain. The LU kernels take each row as a slice once per
// loop and keep the textbook's expressions and order (TestLUMatchesTextbook
// pins them against At and Set loops).
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular reports that a linear system has no unique solution.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrShape reports incompatible matrix dimensions.
var ErrShape = errors.New("linalg: incompatible shapes")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero-valued Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic("linalg: non-positive matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: empty row set")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged row set")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.6g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Mul returns a*b. It panics on shape mismatch (a programming error, not a
// data error, in every call site of this repository).
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(ErrShape)
	}
	return MulInto(NewMatrix(a.Rows, b.Cols), a, b)
}

// MulInto stores a*b in dst and returns dst, so an iteration can reuse one
// buffer. dst must be a.Rows x b.Cols and share no storage with a or b. It
// panics on shape mismatch, like Mul.
//
// Each entry is sum_kk a[i][kk]*b[kk][j], accumulated from +0 in ascending
// kk with a's zero entries skipped, one rounding per multiply and per add:
// exactly the bits of the textbook triple loop. (Skipping matters for a
// non-finite b entry, since 0*Inf is NaN.) The kernel computes two rows of
// a block of four, then two, then one columns at a time, keeping the
// block's sums in registers across kk; an odd last row goes one entry at a
// time.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(ErrShape)
	}
	n, p, rows := a.Cols, b.Cols, a.Rows
	ad, bd, dd := a.Data, b.Data, dst.Data
	i := 0
	for ; i+2 <= rows; i += 2 {
		a0, a1 := ad[i*n:i*n+n], ad[i*n+n:i*n+2*n]
		d0, d1 := dd[i*p:i*p+p], dd[i*p+p:i*p+2*p]
		j := 0
		for ; j+4 <= p; j += 4 {
			d0[j], d0[j+1], d0[j+2], d0[j+3], d1[j], d1[j+1], d1[j+2], d1[j+3] = dot2x4(a0, a1, bd[j:], p)
		}
		if j+2 <= p {
			d0[j], d0[j+1], d1[j], d1[j+1] = dot2x2(a0, a1, bd[j:], p)
			j += 2
		}
		if j < p {
			d0[j], d1[j] = dot2x1(a0, a1, bd[j:], p)
		}
	}
	if i < rows { // an odd last row, one entry at a time
		a0, d0 := ad[i*n:i*n+n], dd[i*p:i*p+p]
		for j := range d0 {
			s, off := 0.0, j
			for _, x := range a0 {
				if x != 0 {
					s += x * bd[off]
				}
				off += p
			}
			d0[j] = s
		}
	}
	return dst
}

// dot2x4 returns the sums of rows a0 and a1 against columns 0..3 of b,
// whose row kk starts at b[kk*p].
func dot2x4(a0, a1, b []float64, p int) (s00, s01, s02, s03, s10, s11, s12, s13 float64) {
	a1 = a1[:len(a0)]
	off := 0
	for kk, x := range a0 {
		bk := b[off : off+4 : off+4]
		off += p
		if x != 0 {
			s00 += x * bk[0]
			s01 += x * bk[1]
			s02 += x * bk[2]
			s03 += x * bk[3]
		}
		if y := a1[kk]; y != 0 {
			s10 += y * bk[0]
			s11 += y * bk[1]
			s12 += y * bk[2]
			s13 += y * bk[3]
		}
	}
	return
}

// dot2x2 is dot2x4 for two columns.
func dot2x2(a0, a1, b []float64, p int) (s00, s01, s10, s11 float64) {
	a1 = a1[:len(a0)]
	off := 0
	for kk, x := range a0 {
		bk := b[off : off+2 : off+2]
		off += p
		if x != 0 {
			s00 += x * bk[0]
			s01 += x * bk[1]
		}
		if y := a1[kk]; y != 0 {
			s10 += y * bk[0]
			s11 += y * bk[1]
		}
	}
	return
}

// dot2x1 is dot2x4 for one column.
func dot2x1(a0, a1, b []float64, p int) (s00, s10 float64) {
	a1 = a1[:len(a0)]
	off := 0
	for kk, x := range a0 {
		bv := b[off]
		off += p
		if x != 0 {
			s00 += x * bv
		}
		if y := a1[kk]; y != 0 {
			s10 += y * bv
		}
	}
	return
}

// AddM returns a+b elementwise.
func AddM(a, b *Matrix) *Matrix { return AddInto(NewMatrix(a.Rows, a.Cols), a, b) }

// SubM returns a-b elementwise.
func SubM(a, b *Matrix) *Matrix { return SubInto(NewMatrix(a.Rows, a.Cols), a, b) }

// AddInto stores a+b in dst and returns dst. dst may be a or b; all three
// must share one shape.
func AddInto(dst, a, b *Matrix) *Matrix {
	sameShape(a, b, dst)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	return dst
}

// SubInto stores a-b in dst and returns dst, like AddInto.
func SubInto(dst, a, b *Matrix) *Matrix {
	sameShape(a, b, dst)
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
	return dst
}

// sameShape panics unless a, b and c share one shape.
func sameShape(a, b, c *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != a.Cols {
		panic(ErrShape)
	}
}

// Scale returns s*a.
func Scale(s float64, a *Matrix) *Matrix { return ScaleInto(NewMatrix(a.Rows, a.Cols), s, a) }

// ScaleInto stores s*a in dst and returns dst. dst may be a; both must
// share one shape.
func ScaleInto(dst *Matrix, s float64, a *Matrix) *Matrix {
	if dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(ErrShape)
	}
	for i, v := range a.Data {
		dst.Data[i] = s * v
	}
	return dst
}

// MulVec returns a*x for a column vector x.
func MulVec(a *Matrix, x []float64) []float64 { return MulVecInto(make([]float64, a.Rows), a, x) }

// MulVecInto stores a*x in dst and returns dst. dst must have a.Rows
// entries and share no storage with x.
func MulVecInto(dst []float64, a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) || a.Rows != len(dst) {
		panic(ErrShape)
	}
	for i := range dst {
		s := 0.0
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
	return dst
}

// MaxAbsDiff returns max_ij |a_ij - b_ij|, ignoring NaN differences: the
// R solver's convergence metric.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(ErrShape)
	}
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

// InfNorm returns the maximum absolute row sum.
func (m *Matrix) InfNorm() float64 {
	max := 0.0
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += math.Abs(m.At(i, j))
		}
		if s > max {
			max = s
		}
	}
	return max
}

// LU holds an LU factorization with partial pivoting of a square matrix,
// and two column buffers for solving against it. Its zero value is ready
// for InverseInto and SolveInto, which size it to their matrix; its storage
// only grows, so once it has held the largest matrix of a loop, factoring
// any of them allocates nothing.
type LU struct {
	lu     Matrix
	piv    []int
	col, x []float64
	buf    []float64 // backs lu.Data, col and x
}

// size makes f an LU for n x n matrices, reusing its storage when it has
// room.
func (f *LU) size(n int) {
	if f.lu.Rows == n {
		return
	}
	if cap(f.piv) < n {
		f.buf, f.piv = make([]float64, n*n+2*n), make([]int, n)
	}
	f.lu = Matrix{Rows: n, Cols: n, Data: f.buf[:n*n]}
	f.piv, f.col, f.x = f.piv[:n], f.buf[n*n:n*n+n], f.buf[n*n+n:n*n+2*n]
}

// Factor computes the LU factorization of a. It returns ErrSingular when a
// pivot underflows working precision.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: LU of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	f := new(LU)
	if err := f.factor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// factor overwrites f with the factorization of a, which must be square.
// Row r is updated as rr[j] += -f * v over the pivot row's entries v right
// of the diagonal, skipping a zero multiplier f.
func (f *LU) factor(a *Matrix) error {
	n := a.Rows
	f.size(n)
	d, piv := f.lu.Data, f.piv
	copy(d, a.Data)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in column at or below diag.
		p := col
		max := math.Abs(d[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(d[r*n+col]); v > max {
				max, p = v, r
			}
		}
		if max < 1e-300 {
			return ErrSingular
		}
		pr := d[col*n : col*n+n]
		if p != col {
			other := d[p*n : p*n+n]
			other = other[:len(pr)]
			for j, v := range pr {
				other[j], pr[j] = v, other[j]
			}
			piv[p], piv[col] = piv[col], piv[p]
		}
		inv := 1 / pr[col]
		right := pr[col+1:]
		for r := col + 1; r < n; r++ {
			row := d[r*n : r*n+n]
			f := row[col] * inv
			row[col] = f
			if f == 0 {
				continue
			}
			rr := row[col+1:]
			rr = rr[:len(right)]
			for j, v := range right {
				rr[j] += -f * v
			}
		}
	}
	return nil
}

// Solve returns x with a*x = b for the factored matrix.
func (f *LU) Solve(b []float64) []float64 {
	if len(b) != f.lu.Rows {
		panic(ErrShape)
	}
	x := make([]float64, len(b))
	f.solveInto(x, b)
	return x
}

// solveInto stores the x with a*x = b in x, which must have b's length and
// share no storage with it. Each row of the triangles is one slice, summed
// as s -= v * x[j] in ascending j.
func (f *LU) solveInto(x, b []float64) {
	n, d := f.lu.Rows, f.lu.Data
	x = x[:n]
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := d[i*n : i*n+i]
		left, s := x[:len(row)], x[i]
		for j, v := range row {
			s -= v * left[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := d[i*n+i+1 : i*n+n]
		right, s := x[i+1:], x[i]
		right = right[:len(row)]
		for j, v := range row {
			s -= v * right[j]
		}
		x[i] = s / d[i*n+i]
	}
}

// Solve returns x with a*x = b.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SolveInto stores the x with a*x = b in x, factoring a into f, so a loop
// that solves a system at every step allocates nothing. a must be square,
// x and b must have its size, and x share no storage with b; it panics on a
// shape mismatch. The bits are Solve's.
func SolveInto(x []float64, a *Matrix, b []float64, f *LU) error {
	if n := a.Rows; a.Cols != n || len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	if err := f.factor(a); err != nil {
		return err
	}
	f.solveInto(x, b)
	return nil
}

// SolveMatrix returns X with a*X = B, solving column by column. No
// production code calls it: it and Inverse are the tests' reference for
// InverseInto and for package mrt's textbook logarithmic reduction.
func SolveMatrix(a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, ErrShape
	}
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	out := NewMatrix(a.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		for i := range f.col {
			f.col[i] = b.At(i, j)
		}
		f.solveColumn(out, j)
	}
	return out, nil
}

// solveColumn stores the x with a*x = f.col in column j of dst.
func (f *LU) solveColumn(dst *Matrix, j int) {
	f.solveInto(f.x, f.col)
	for i, v := range f.x {
		dst.Set(i, j, v)
	}
}

// Inverse returns a^{-1}. Like SolveMatrix, it is kept as the tests'
// reference; production code inverts with InverseInto.
func Inverse(a *Matrix) (*Matrix, error) {
	return SolveMatrix(a, Identity(a.Rows))
}

// InverseInto stores a^{-1} in dst, factoring a into f, so a loop that
// inverts a matrix at every step allocates nothing. a and dst must share
// one square shape, and dst no storage with a; it panics on a shape
// mismatch. The bits are Inverse's: the same pivoting, then one solve per
// identity column.
func InverseInto(dst, a *Matrix, f *LU) error {
	if n := a.Rows; a.Cols != n || dst.Rows != n || dst.Cols != n {
		panic(ErrShape)
	}
	if err := f.factor(a); err != nil {
		return err
	}
	for j := range f.col {
		clear(f.col)
		f.col[j] = 1
		f.solveColumn(dst, j)
	}
	return nil
}
