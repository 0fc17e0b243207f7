package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// sameBits reports whether x and y hold bit-identical values.
func sameBits(x, y []float64) bool {
	for i, v := range x {
		if math.Float64bits(v) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

func randomMatrix(r *xrand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = 2*r.Float64() - 1
	}
	// Diagonal dominance guarantees non-singularity for property tests.
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

func TestIdentityMul(t *testing.T) {
	r := xrand.New(1)
	a := randomMatrix(r, 5)
	left := Mul(Identity(5), a)
	right := Mul(a, Identity(5))
	if MaxAbsDiff(left, a) > 1e-14 || MaxAbsDiff(right, a) > 1e-14 {
		t.Fatal("identity multiplication is not a no-op")
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if MaxAbsDiff(Mul(a, b), want) > 1e-14 {
		t.Fatalf("Mul result:\n%v", Mul(a, b))
	}
}

func TestMulShapePanics(t *testing.T) {
	for name, mul := range map[string]func(){
		"Mul":         func() { Mul(NewMatrix(2, 3), NewMatrix(2, 3)) },
		"MulInto dst": func() { MulInto(NewMatrix(3, 3), NewMatrix(2, 2), NewMatrix(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: shape mismatch did not panic", name)
				}
			}()
			mul()
		}()
	}
}

// TestMulIntoOverwritesDst: a reused buffer's old contents never leak into
// the product.
func TestMulIntoOverwritesDst(t *testing.T) {
	r := xrand.New(3)
	a, b := randomMatrix(r, 4), randomMatrix(r, 4)
	dst := randomMatrix(r, 4)
	if got := MulInto(dst, a, b); got != dst || MaxAbsDiff(dst, Mul(a, b)) != 0 {
		t.Fatalf("MulInto into a dirty buffer:\n%v\nwant\n%v", dst, Mul(a, b))
	}
}

// oddMatrix fills a rows x cols matrix with a mix of +0, -0, subnormals
// and ordinary values of both signs; with inf set, some entries are
// infinite, so a product that multiplied a zero by one would read NaN.
func oddMatrix(r *xrand.Rand, rows, cols int, inf bool) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch u := r.Float64(); {
		case u < 0.2:
			m.Data[i] = 0
		case u < 0.3:
			m.Data[i] = math.Copysign(0, -1)
		case u < 0.4:
			m.Data[i] = float64(r.Intn(1000)-500) * math.SmallestNonzeroFloat64
		case inf && u < 0.43:
			m.Data[i] = math.Inf(1 - 2*r.Intn(2))
		default:
			m.Data[i] = math.Ldexp(2*r.Float64()-1, r.Intn(40)-20)
		}
	}
	return m
}

// TestMulIntoMatchesDotProducts pins the blocked kernel to the per-entry
// dot product, summed from +0 in kk order over a's nonzero entries, bit for
// bit, on every product shape up to 20 x 20 x 20.
func TestMulIntoMatchesDotProducts(t *testing.T) {
	r := xrand.New(11)
	for rows := 1; rows <= 20; rows++ {
		for inner := 1; inner <= 20; inner++ {
			for cols := 1; cols <= 20; cols++ {
				a, b := oddMatrix(r, rows, inner, false), oddMatrix(r, inner, cols, true)
				want := NewMatrix(rows, cols)
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						s := 0.0
						for kk := 0; kk < inner; kk++ {
							if x := a.At(i, kk); x != 0 {
								s += x * b.At(kk, j)
							}
						}
						want.Set(i, j, s)
					}
				}
				shape := fmt.Sprintf("%dx%d times %dx%d", rows, inner, inner, cols)
				got := MulInto(oddMatrix(r, rows, cols, false), a, b)
				if !sameBits(got.Data, want.Data) {
					t.Fatalf("MulInto, %s:\n%v\nwant\n%v", shape, got, want)
				}
			}
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{4, 3}, {2, 1}})
	if MaxAbsDiff(AddM(a, b), FromRows([][]float64{{5, 5}, {5, 5}})) > 0 {
		t.Fatal("AddM wrong")
	}
	if MaxAbsDiff(SubM(a, b), FromRows([][]float64{{-3, -1}, {1, 3}})) > 0 {
		t.Fatal("SubM wrong")
	}
	if MaxAbsDiff(Scale(2, a), FromRows([][]float64{{2, 4}, {6, 8}})) > 0 {
		t.Fatal("Scale wrong")
	}
}

func TestSolveKnown(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3.
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("solution %v", x)
	}
}

func TestSolveResidualProperty(t *testing.T) {
	r := xrand.New(42)
	f := func(nq uint8) bool {
		n := int(nq%8) + 2
		a := randomMatrix(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = 2*r.Float64() - 1
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		res := MulVec(a, x)
		for i := range res {
			if !almostEq(res[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseProperty(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 25; trial++ {
		n := 2 + trial%7
		a := randomMatrix(r, n)
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		if MaxAbsDiff(Mul(a, inv), Identity(n)) > 1e-9 {
			t.Fatalf("a*a^-1 != I for n=%d", n)
		}
		if MaxAbsDiff(Mul(inv, a), Identity(n)) > 1e-9 {
			t.Fatalf("a^-1*a != I for n=%d", n)
		}
	}
}

// TestInverseIntoMatchesInverse: one LU and one dirty output buffer, reused
// across matrices of a size, give Inverse's bits; a singular matrix reports
// ErrSingular.
func TestInverseIntoMatchesInverse(t *testing.T) {
	r := xrand.New(13)
	for n := 1; n <= 20; n++ {
		f, dst := new(LU), oddMatrix(r, n, n, false)
		for trial := 0; trial < 5; trial++ {
			a := NewMatrix(n, n) // no dominant diagonal, so rows get swapped
			for i := range a.Data {
				a.Data[i] = 2*r.Float64() - 1
			}
			want, err := Inverse(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := InverseInto(dst, a, f); err != nil {
				t.Fatal(err)
			}
			if !sameBits(dst.Data, want.Data) {
				t.Fatalf("n %d, trial %d: InverseInto\n%v\nInverse\n%v", n, trial, dst, want)
			}
		}
	}
	if err := InverseInto(NewMatrix(2, 2), FromRows([][]float64{{1, 2}, {2, 4}}), new(LU)); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular matrix: got %v, want ErrSingular", err)
	}
}

// textbookLU factors a copy of a by partial pivoting, entry by entry with
// At and Set: the largest magnitude at or below the diagonal pivots (the
// first of equals), the two rows swap whole, and each row below becomes
// a[r][j] + -f*a[col][j] right of the diagonal, skipped when its multiplier
// f is zero. It also returns how many multipliers were zero.
func textbookLU(a *Matrix) (lu *Matrix, piv []int, zeros int, err error) {
	n := a.Rows
	lu, piv = a.Clone(), make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(lu.At(r, col)) > math.Abs(lu.At(p, col)) {
				p = r
			}
		}
		if math.Abs(lu.At(p, col)) < 1e-300 {
			return nil, nil, 0, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				v := lu.At(p, j)
				lu.Set(p, j, lu.At(col, j))
				lu.Set(col, j, v)
			}
			piv[p], piv[col] = piv[col], piv[p]
		}
		inv := 1 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				zeros++
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Set(r, j, lu.At(r, j)+-f*lu.At(col, j))
			}
		}
	}
	return lu, piv, zeros, nil
}

// textbookSolve solves against textbookLU's factors: b permuted, forward
// substitution through the unit lower triangle, then back substitution,
// each sum taken in ascending column order.
func textbookSolve(lu *Matrix, piv []int, b []float64) []float64 {
	n := lu.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= lu.At(i, j) * x[j]
		}
		x[i] = s / lu.At(i, i)
	}
	return x
}

// luMatrix returns an n x n matrix of entries in [-1, 1] with no dominant
// diagonal, so rows get swapped, about a fifth of them +0 or -0, and a
// zero lower-left block in about half of them, so that multipliers are
// zero past the first column too.
func luMatrix(r *xrand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		switch u := r.Float64(); {
		case u < 0.1:
			a.Data[i] = 0
		case u < 0.2:
			a.Data[i] = math.Copysign(0, -1)
		default:
			a.Data[i] = 2*r.Float64() - 1
		}
	}
	if n > 2 && r.Intn(2) == 0 {
		rows, cols := 1+r.Intn(n/2), 1+r.Intn(n/2)
		for i := n - rows; i < n; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, math.Copysign(0, float64(r.Intn(2))-0.5))
			}
		}
	}
	return a
}

// TestLUMatchesTextbook pins the LU kernels on their own: Solve, SolveInto
// and InverseInto give textbookLU's and textbookSolve's bits for n 1 to 60,
// with one LU and one dirty inverse buffer reused across all sizes in
// shuffled order, and each reports ErrSingular on a singular matrix.
func TestLUMatchesTextbook(t *testing.T) {
	r := xrand.New(27)
	sizes := make([]int, 60)
	for i := range sizes {
		sizes[i] = i + 1
	}
	for i := len(sizes) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	var f LU
	// singular checks that every form refuses a matrix textbookLU finds
	// singular.
	singular := func(name string, a *Matrix) {
		t.Helper()
		n := a.Rows
		if _, err := Solve(a, make([]float64, n)); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: Solve: got %v, want ErrSingular", name, err)
		}
		if err := SolveInto(make([]float64, n), a, make([]float64, n), &f); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: SolveInto: got %v, want ErrSingular", name, err)
		}
		if err := InverseInto(NewMatrix(n, n), a, &f); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: InverseInto: got %v, want ErrSingular", name, err)
		}
	}
	swapped, zeros, refused := 0, 0, 0
	for _, n := range sizes {
		for trial := 0; trial < 3; trial++ {
			a, b := luMatrix(r, n), make([]float64, n)
			for i := range b {
				b[i] = 2*r.Float64() - 1
			}
			b[r.Intn(n)] = math.Copysign(0, -1)
			lu, piv, z, err := textbookLU(a)
			if err != nil { // so many zeros can make a small matrix singular
				singular(fmt.Sprintf("n %d, trial %d", n, trial), a)
				refused++
				continue
			}
			zeros += z
			for i, p := range piv {
				if i != p {
					swapped++
					break
				}
			}
			want := textbookSolve(lu, piv, b)
			got, err := Solve(a, b)
			if err != nil || !sameBits(got, want) {
				t.Fatalf("n %d, trial %d: Solve %v (%v), textbook %v", n, trial, got, err, want)
			}
			got = oddMatrix(r, 1, n, false).Data
			if err := SolveInto(got, a, b, &f); err != nil || !sameBits(got, want) {
				t.Fatalf("n %d, trial %d: SolveInto %v (%v), textbook %v", n, trial, got, err, want)
			}
			inv := oddMatrix(r, n, n, false)
			if err := InverseInto(inv, a, &f); err != nil {
				t.Fatalf("n %d, trial %d: InverseInto: %v", n, trial, err)
			}
			e := make([]float64, n)
			for j := 0; j < n; j++ {
				clear(e)
				e[j] = 1
				for i, v := range textbookSolve(lu, piv, e) {
					if g := inv.At(i, j); math.Float64bits(g) != math.Float64bits(v) {
						t.Fatalf("n %d, trial %d: InverseInto entry (%d, %d) is %v, textbook %v", n, trial, i, j, g, v)
					}
				}
			}
		}
	}
	if swapped == 0 || zeros == 0 {
		t.Fatalf("%d factorizations swapped rows and %d multipliers were zero; want both", swapped, zeros)
	}
	t.Logf("%d matrices: %d singular, %d with rows swapped, %d zero multipliers", 3*len(sizes), refused, swapped, zeros)

	zeroColumn := luMatrix(r, 7)
	for i := 0; i < 7; i++ {
		zeroColumn.Set(i, 3, 0)
	}
	for name, a := range map[string]*Matrix{"rank 1": FromRows([][]float64{{1, 2}, {2, 4}}), "zero column": zeroColumn} {
		if _, _, _, err := textbookLU(a); !errors.Is(err, ErrSingular) {
			t.Fatalf("%s: textbook LU: got %v, want ErrSingular", name, err)
		}
		singular(name, a)
	}
}

func TestSingularDetected(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := MulVec(a, []float64{1, 1, 1})
	if !almostEq(got[0], 6, 0) || !almostEq(got[1], 15, 0) {
		t.Fatalf("MulVec %v", got)
	}
}

func TestInfNorm(t *testing.T) {
	a := FromRows([][]float64{{1, -5}, {2, 2}})
	if a.InfNorm() != 6 {
		t.Fatalf("inf norm %v", a.InfNorm())
	}
}

func TestSolveMatrixColumns(t *testing.T) {
	a := FromRows([][]float64{{4, 1}, {1, 3}})
	b := FromRows([][]float64{{1, 0}, {0, 1}})
	x, err := SolveMatrix(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(Mul(a, x), b) > 1e-12 {
		t.Fatal("SolveMatrix residual too large")
	}
}

func TestFromRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIndependence(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func BenchmarkMul16(b *testing.B) {
	r := xrand.New(1)
	a := randomMatrix(r, 16)
	c := randomMatrix(r, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(a, c)
	}
}

func BenchmarkFactorSolve16(b *testing.B) {
	r := xrand.New(1)
	a := randomMatrix(r, 16)
	rhs := make([]float64, 16)
	for i := range rhs {
		rhs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := Factor(a)
		if err != nil {
			b.Fatal(err)
		}
		f.Solve(rhs)
	}
}
