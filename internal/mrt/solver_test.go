package mrt

// The solver kernels under the analysis (qbd.SolveR and
// linalg.SpectralRadius) pinned on the chains this package builds. They are
// tested here, not in their own packages, because mrt is the lowest package
// that sees both the kernels and the paper's chains.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/qbd"
	"repro/internal/queueing"
)

// spectralRadiusFull runs all iters power iterations, allocating a fresh
// vector each. linalg.SpectralRadius stops early on a cycle and must still
// return this loop's value bit for bit.
func spectralRadiusFull(a *linalg.Matrix, iters int) float64 {
	n := a.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	radius := 0.0
	for it := 0; it < iters; it++ {
		y := linalg.MulVec(a, x)
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range y {
			y[i] /= norm
		}
		x = y
		radius = norm
	}
	return radius
}

// rotation turns by one radian, so its power iterates never repeat.
func rotation() *linalg.Matrix {
	c, s := math.Cos(1), math.Sin(1)
	return linalg.FromRows([][]float64{{c, -s}, {s, c}})
}

// goldenChains returns the IF and EF chains behind every cell of the
// internal/exp figure goldens (TestGoldenFigureCells). The Figure 5 cells
// are the Figure 4 cells at muE 1, so they add no chain.
func goldenChains(t *testing.T) map[string]*qbd.Chain {
	t.Helper()
	var pts []queueing.Model
	grid := []float64{0.5, 1, 2}
	for _, rho := range []float64{0.7, 0.9} {
		for _, muI := range grid {
			for _, muE := range grid {
				pts = append(pts, queueing.ForLoad(4, rho, muI, muE))
			}
		}
	}
	for _, k := range []int{2, 4} {
		pts = append(pts, queueing.ForLoad(k, 0.8, 0.5, 1))
	}
	for _, k := range []int{8, 16} {
		pts = append(pts, queueing.ForLoad(k, 0.9, 0.5, 1))
	}
	chains := make(map[string]*qbd.Chain)
	for _, p := range pts {
		ifc, err := ifChain(p, Coxian3Moment)
		if err != nil {
			t.Fatal(err)
		}
		efc, err := efChain(p, Coxian3Moment)
		if err != nil {
			t.Fatal(err)
		}
		chains[fmt.Sprintf("IF %+v", p)] = ifc
		chains[fmt.Sprintf("EF %+v", p)] = efc
	}
	return chains
}

// TestSpectralRadiusMatchesFullLoop pins SpectralRadius's cycle exit to the
// full loop on the R of every golden chain and on matrices whose iterates
// reach a fixed point, alternate, cycle with period 3, never repeat, or
// vanish.
func TestSpectralRadiusMatchesFullLoop(t *testing.T) {
	twoCycle := linalg.FromRows([][]float64{{0, 2}, {1, 0}})
	cases := map[string]*linalg.Matrix{
		"fixed point": linalg.FromRows([][]float64{{0.5, 0}, {0, 0.25}}),
		"stochastic":  linalg.FromRows([][]float64{{0.9, 0.1}, {0.4, 0.6}}),
		"2-cycle":     twoCycle,
		"3-cycle":     linalg.FromRows([][]float64{{0, 0, 3}, {1, 0, 0}, {0, 2, 0}}),
		"rotation":    rotation(),
		"zero":        linalg.NewMatrix(3, 3),
	}
	for name, c := range goldenChains(t) {
		r, err := qbd.SolveR(c.A0, c.A1, c.A2, 1e-14, 1_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases["R of "+name] = r
	}
	iters := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 1996, 1997, 1998, 1999, 2000}
	for name, a := range cases {
		for _, n := range iters {
			got, want := linalg.SpectralRadius(a, n), spectralRadiusFull(a, n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, iters %d: got %v, the full loop gives %v", name, n, got, want)
			}
		}
	}
	// The alternating iterate ends on a different norm at odd and even
	// iteration counts.
	for n, want := range map[int]float64{1999: math.Sqrt(2.5), 2000: math.Sqrt(1.6)} {
		if got := linalg.SpectralRadius(twoCycle, n); math.Abs(got-want) > 1e-12 {
			t.Errorf("2-cycle, iters %d: got %v, want %v", n, got, want)
		}
	}
}

// TestAnalysisAllocs gates allocations on the analysis path: the R
// iteration and the power iteration allocate per call, never per
// iteration, so a tighter tolerance or a higher iteration count costs no
// allocation.
func TestAnalysisAllocs(t *testing.T) {
	c, err := ifChain(queueing.ForLoad(4, 0.9, 1, 1), Coxian3Moment)
	if err != nil {
		t.Fatal(err)
	}
	solveAllocs := func(tol float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := qbd.SolveR(c.A0, c.A1, c.A2, tol, 1_000_000); err != nil {
				t.Fatal(err)
			}
		})
	}
	if loose, tight := solveAllocs(1e-8), solveAllocs(1e-14); loose != tight {
		t.Errorf("SolveR on the IF chain: %v allocs at tol 1e-8, %v at 1e-14", loose, tight)
	}
	rot := rotation()
	radiusAllocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() { linalg.SpectralRadius(rot, iters) })
	}
	if few, many := radiusAllocs(10), radiusAllocs(2000); few != many {
		t.Errorf("SpectralRadius on the rotation: %v allocs at iters 10, %v at 2000", few, many)
	}
}

// textbookR runs the functional iteration R <- (A0 + R^2 A2)(-A1)^{-1} from
// R = 0 as the textbook writes it, allocating every product, until two
// iterates differ by less than tol. It returns R and the iteration count;
// qbd.SolveR must return this R bit for bit.
func textbookR(c *qbd.Chain, tol float64) (*linalg.Matrix, int, error) {
	negA1Inv, err := linalg.Inverse(linalg.Scale(-1, c.A1))
	if err != nil {
		return nil, 0, err
	}
	r := linalg.NewMatrix(c.Phases, c.Phases)
	for iter := 1; iter <= 1_000_000; iter++ {
		next := linalg.Mul(linalg.AddM(c.A0, linalg.Mul(linalg.Mul(r, r), c.A2)), negA1Inv)
		if linalg.MaxAbsDiff(next, r) < tol {
			return next, iter, nil
		}
		r = next
	}
	return nil, 0, qbd.ErrNotConverged
}

// figureChains adds to goldenChains the IF and EF chains of the full k-4
// Figure 4 grid at rho 0.5, 0.7 and 0.9 and of Figure 6's k in {2, 4, 8,
// 16} at muI 0.25 and 3.25 (rho 0.9, muE 1). Shared points share a key.
func figureChains(t *testing.T) map[string]*qbd.Chain {
	t.Helper()
	chains := goldenChains(t)
	var pts []queueing.Model
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		for i := 1; i <= 14; i++ {
			for j := 1; j <= 14; j++ {
				pts = append(pts, queueing.ForLoad(4, rho, 0.25*float64(i), 0.25*float64(j)))
			}
		}
	}
	for _, muI := range []float64{0.25, 3.25} {
		for _, k := range []int{2, 4, 8, 16} {
			pts = append(pts, queueing.ForLoad(k, 0.9, muI, 1))
		}
	}
	for _, p := range pts {
		ifc, err := ifChain(p, Coxian3Moment)
		if err != nil {
			t.Fatal(err)
		}
		efc, err := efChain(p, Coxian3Moment)
		if err != nil {
			t.Fatal(err)
		}
		chains[fmt.Sprintf("IF %+v", p)] = ifc
		chains[fmt.Sprintf("EF %+v", p)] = efc
	}
	return chains
}

// TestSolveRMatchesTextbookIteration pins qbd.SolveR, whatever buffers,
// sparsity and column restriction it uses, to the allocating textbook loop
// on every chain behind the figures and the golden cells: every entry of R
// must carry the same bits.
func TestSolveRMatchesTextbookIteration(t *testing.T) {
	iters := 0
	chains := figureChains(t)
	for name, c := range chains {
		want, n, err := textbookR(c, 1e-14)
		if err != nil {
			t.Fatalf("%s: textbook loop: %v", name, err)
		}
		iters += n
		got, err := qbd.SolveR(c.A0, c.A1, c.A2, 1e-14, 1_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, w := range want.Data {
			if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s: R entry (%d, %d) is %v (%#x), the textbook loop gives %v (%#x)",
					name, i/c.Phases, i%c.Phases, g, math.Float64bits(g), w, math.Float64bits(w))
				break
			}
		}
	}
	t.Logf("%d chains, %d iterations", len(chains), iters)
}

// BenchmarkSolveRFigureChains times the R iteration alone on figure chains
// at rho 0.9 and muI = muE = 1: IF and EF at k 4 (442 and 433 iterations)
// and IF at k 16, the largest phase count the figure set solves.
func BenchmarkSolveRFigureChains(b *testing.B) {
	k4, k16 := queueing.ForLoad(4, 0.9, 1, 1), queueing.ForLoad(16, 0.9, 1, 1)
	for _, bc := range []struct {
		name  string
		chain func(queueing.Model, BusyPeriodFit) (*qbd.Chain, error)
		p     queueing.Model
	}{
		{"IF-k4", ifChain, k4},
		{"EF-k4", efChain, k4},
		{"IF-k16", ifChain, k16},
	} {
		c, err := bc.chain(bc.p, Coxian3Moment)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := qbd.SolveR(c.A0, c.A1, c.A2, 1e-14, 1_000_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
