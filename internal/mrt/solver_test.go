package mrt

// The solver kernels under the analysis (qbd.SolveR and the mean-drift
// stability check of qbd.(*Chain).Solve) pinned on the chains this package
// builds. They are tested here, not in their own packages, because mrt is
// the lowest package that sees both the kernels and the paper's chains.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/qbd"
	"repro/internal/queueing"
)

// mul, add, sub, scale, clone and identity allocate their result, so that
// the textbook references below read as the textbook writes them; each is
// linalg's one form of the operation, into a fresh matrix.
func mul(a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.MulInto(linalg.NewMatrix(a.Rows, b.Cols), a, b)
}

func add(a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.AddInto(linalg.NewMatrix(a.Rows, a.Cols), a, b)
}

func sub(a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.SubInto(linalg.NewMatrix(a.Rows, a.Cols), a, b)
}

func scale(s float64, a *linalg.Matrix) *linalg.Matrix {
	return linalg.ScaleInto(linalg.NewMatrix(a.Rows, a.Cols), s, a)
}

func clone(a *linalg.Matrix) *linalg.Matrix {
	c := linalg.NewMatrix(a.Rows, a.Cols)
	copy(c.Data, a.Data)
	return c
}

func identity(n int) *linalg.Matrix {
	m := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// spectralRadiusFull estimates sp(a) by running all iters power
// iterations, allocating a fresh vector each: the reference that the
// mean-drift check is held to (TestDriftAgreesWithSpectralRadius).
func spectralRadiusFull(a *linalg.Matrix, iters int) float64 {
	n := a.Rows
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	radius := 0.0
	for it := 0; it < iters; it++ {
		y := linalg.MulVecInto(make([]float64, n), a, x)
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

// ifChain and efChain build a chain in a workspace of its own, so that a
// test can hold many.
func ifChain(p queueing.Model, fit BusyPeriodFit) (*qbd.Chain, error) {
	return new(workspace).ifChain(p, fit)
}

func efChain(p queueing.Model, fit BusyPeriodFit) (*qbd.Chain, error) {
	return new(workspace).efChain(p, fit)
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
	return addChains(t, make(map[string]*qbd.Chain), pts)
}

// addChains adds the IF and EF chains of every model in pts to chains,
// keyed by policy and model, and returns chains.
func addChains(t *testing.T, chains map[string]*qbd.Chain, pts []queueing.Model) map[string]*qbd.Chain {
	t.Helper()
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

// TestAnalysisAllocs gates allocations on the analysis path: the R solve
// allocates per call, never per doubling, so a tighter tolerance costs no
// allocation; and IF and EF, once warm, allocate nothing at all, at a
// Figure 4 point (k 4, rho 0.9) and at Figure 6's k 16. The second half
// measures IF and EF themselves, pool included, so it is skipped under the
// race detector, which makes sync.Pool drop Puts at random.
func TestAnalysisAllocs(t *testing.T) {
	c, err := ifChain(queueing.ForLoad(4, 0.9, 1, 1), Coxian3Moment)
	if err != nil {
		t.Fatal(err)
	}
	solveAllocs := func(tol float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := qbd.SolveR(c.A0, c.A1, c.A2, tol); err != nil {
				t.Fatal(err)
			}
		})
	}
	if loose, tight := solveAllocs(1e-8), solveAllocs(1e-14); loose != tight {
		t.Errorf("SolveR on the IF chain: %v allocs at tol 1e-8, %v at 1e-14", loose, tight)
	}

	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	for point, p := range map[string]queueing.Model{
		"k 4, rho 0.9, muI 1, muE 1":     queueing.ForLoad(4, 0.9, 1, 1),
		"k 16, rho 0.9, muI 0.25, muE 1": queueing.ForLoad(16, 0.9, 0.25, 1),
	} {
		for name, analyze := range map[string]func(queueing.Model, BusyPeriodFit) (Result, error){"IF": IF, "EF": EF} {
			// AllocsPerRun makes one call to warm up before it counts.
			if n := testing.AllocsPerRun(20, func() {
				if _, err := analyze(p, Coxian3Moment); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s at %s: %v allocations per warm call, want 0", name, point, n)
			}
		}
	}
}

// textbookR runs the logarithmic reduction of Latouche & Ramaswami as the
// textbook writes it, allocating every product and inverse: with
// N = (-A1)^{-1}, H = N A0, L = N A2, G = L and T = H, each doubling sets
// U = HL + LH, H <- (I-U)^{-1} H^2, L <- (I-U)^{-1} L^2, G <- G + TL and
// T <- TH until G moves by less than tol, and R = A0 (-(A1 + A0 G))^{-1}.
// It returns R and the doubling count; qbd.SolveR must return this R bit
// for bit.
func textbookR(c *qbd.Chain, tol float64) (*linalg.Matrix, int, error) {
	negA1Inv, err := linalg.Inverse(scale(-1, c.A1))
	if err != nil {
		return nil, 0, err
	}
	h := mul(negA1Inv, c.A0)
	l := mul(negA1Inv, c.A2)
	g, t := clone(l), clone(h)
	for iter := 1; iter <= 64; iter++ {
		u := add(mul(h, l), mul(l, h))
		iu, err := linalg.Inverse(sub(identity(c.Phases), u))
		if err != nil {
			return nil, 0, err
		}
		h = mul(iu, mul(h, h))
		l = mul(iu, mul(l, l))
		gNext := add(g, mul(t, l))
		t = mul(t, h)
		if linalg.MaxAbsDiff(gNext, g) < tol {
			denom, err := linalg.Inverse(scale(-1, add(c.A1, mul(c.A0, gNext))))
			if err != nil {
				return nil, 0, err
			}
			return mul(c.A0, denom), iter, nil
		}
		g = gNext
	}
	return nil, 0, qbd.ErrNotConverged
}

// functionalR is the independent reference for qbd.SolveR: the functional
// iteration R <- (A0 + R^2 A2)(-A1)^{-1} from R = 0, linearly convergent,
// until two iterates differ by less than tol.
func functionalR(c *qbd.Chain, tol float64) (*linalg.Matrix, error) {
	negA1Inv, err := linalg.Inverse(scale(-1, c.A1))
	if err != nil {
		return nil, err
	}
	r := linalg.NewMatrix(c.Phases, c.Phases)
	for iter := 1; iter <= 10_000_000; iter++ {
		next := mul(add(c.A0, mul(mul(r, r), c.A2)), negA1Inv)
		if linalg.MaxAbsDiff(next, r) < tol {
			return next, nil
		}
		r = next
	}
	return nil, qbd.ErrNotConverged
}

// residual returns ||A0 + R A1 + R^2 A2||_inf.
func residual(c *qbd.Chain, r *linalg.Matrix) float64 {
	return add(c.A0, add(mul(r, c.A1), mul(mul(r, r), c.A2))).InfNorm()
}

// figureChains adds to goldenChains the IF and EF chains of the full k-4
// Figure 4 grid at rho 0.5, 0.7 and 0.9 and of Figure 6's k in {2, 4, 8,
// 16} at muI 0.25 and 3.25 (rho 0.9, muE 1). Shared points share a key.
func figureChains(t *testing.T) map[string]*qbd.Chain {
	t.Helper()
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
	return addChains(t, goldenChains(t), pts)
}

// TestSolveRMatchesTextbookLogReduction pins qbd.SolveR, whatever buffers
// it reuses, to the allocating textbook loop on every chain behind the
// figures and the golden cells: every entry of R must carry the same bits.
func TestSolveRMatchesTextbookLogReduction(t *testing.T) {
	doublings := 0
	chains := figureChains(t)
	for name, c := range chains {
		want, n, err := textbookR(c, 1e-14)
		if err != nil {
			t.Fatalf("%s: textbook loop: %v", name, err)
		}
		doublings += n
		got, err := qbd.SolveR(c.A0, c.A1, c.A2, 1e-14)
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
	t.Logf("%d chains, %d doublings", len(chains), doublings)
}

// highLoadChains returns the IF and EF chains at rho 0.95, 0.99 and 0.999,
// k 4 and 16, muI 0.25 and 3.25 (muE 1), where the functional iteration
// converges slowest.
func highLoadChains(t *testing.T) map[string]*qbd.Chain {
	t.Helper()
	var pts []queueing.Model
	for _, rho := range []float64{0.95, 0.99, 0.999} {
		for _, k := range []int{4, 16} {
			for _, muI := range []float64{0.25, 3.25} {
				pts = append(pts, queueing.ForLoad(k, rho, muI, 1))
			}
		}
	}
	return addChains(t, make(map[string]*qbd.Chain), pts)
}

// TestRMethodsAgree holds qbd.SolveR to the functional iteration within
// 1e-10 on every figure and golden chain and on the high-load set. On all
// of them its residual ||A0 + R A1 + R^2 A2||_inf is at most 1e-12 and no
// larger than the functional iteration's.
func TestRMethodsAgree(t *testing.T) {
	chains := figureChains(t)
	maps.Copy(chains, highLoadChains(t))
	worstDiff, worstRes := 0.0, 0.0
	for name, c := range chains {
		want, err := functionalR(c, 1e-14)
		if err != nil {
			t.Fatalf("%s: functional iteration: %v", name, err)
		}
		got, err := qbd.SolveR(c.A0, c.A1, c.A2, 1e-14)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d, res := linalg.MaxAbsDiff(got, want), residual(c, got)
		if d > 1e-10 {
			t.Errorf("%s: R differs from the functional iteration's by %v", name, d)
		}
		if ref := residual(c, want); res > 1e-12 || res > ref {
			t.Errorf("%s: residual %v, the functional iteration's %v", name, res, ref)
		}
		worstDiff, worstRes = math.Max(worstDiff, d), math.Max(worstRes, res)
	}
	t.Logf("%d chains: largest difference %.3g, largest residual %.3g", len(chains), worstDiff, worstRes)
}

// oneMomentChains returns the IF and EF chains of the one-moment busy-period
// fit (Exponential1Moment), in which phase b2 is never entered, at k 1, 2,
// 4, 8 and 16, rho 0.5, 0.7, 0.9 and 0.99 and muI 0.25, 1 and 3.25 (muE 1).
func oneMomentChains(t *testing.T) map[string]*qbd.Chain {
	t.Helper()
	chains := make(map[string]*qbd.Chain)
	for _, k := range []int{1, 2, 4, 8, 16} {
		for _, rho := range []float64{0.5, 0.7, 0.9, 0.99} {
			for _, muI := range []float64{0.25, 1, 3.25} {
				p := queueing.ForLoad(k, rho, muI, 1)
				ifc, err := ifChain(p, Exponential1Moment)
				if err != nil {
					t.Fatal(err)
				}
				efc, err := efChain(p, Exponential1Moment)
				if err != nil {
					t.Fatal(err)
				}
				chains[fmt.Sprintf("IF one-moment %+v", p)] = ifc
				chains[fmt.Sprintf("EF one-moment %+v", p)] = efc
			}
		}
	}
	return chains
}

// scaleArrivals returns c with its repeating levels' up block A0 scaled by
// s and A1's diagonal rebalanced, so that the rows still sum to zero.
func scaleArrivals(c *qbd.Chain, s float64) *qbd.Chain {
	a0, a1 := scale(s, c.A0), clone(c.A1)
	for i := 0; i < c.Phases; i++ {
		for j := 0; j < c.Phases; j++ {
			a1.Add(i, i, c.A0.At(i, j)-a0.At(i, j))
		}
	}
	return &qbd.Chain{Phases: c.Phases, Boundary: c.Boundary, A0: a0, A1: a1, A2: c.A2}
}

// TestDriftAgreesWithSpectralRadius holds qbd.(*Chain).Solve's mean-drift
// stability check to sp(R), taken by the full 2000-step power iteration on
// qbd.SolveR's R. Every figure, golden, high-load and one-moment chain
// passes it. On the golden chains with their arrivals scaled by 0.5, 0.9,
// 1.1, 1.5 and 3, Solve refuses a chain with ErrUnstable exactly when
// sp(R) >= 1 - 1e-10, and it refuses every chain whose reduction does not
// converge.
func TestDriftAgreesWithSpectralRadius(t *testing.T) {
	chains := figureChains(t)
	maps.Copy(chains, highLoadChains(t))
	maps.Copy(chains, oneMomentChains(t))
	margin := math.Inf(1)
	for name, c := range chains {
		up, down, err := c.Drift()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		margin = math.Min(margin, (down-up)/down)
		if _, err := c.Solve(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	t.Logf("%d stable chains: smallest relative drift margin %.3g", len(chains), margin)

	scaled, refused, diverged := 0, 0, 0
	for name, golden := range goldenChains(t) {
		for _, s := range []float64{0.5, 0.9, 1.1, 1.5, 3} {
			c := scaleArrivals(golden, s)
			scaled++
			_, err := c.Solve()
			unstable := errors.Is(err, qbd.ErrUnstable)
			if unstable {
				refused++
			} else if err != nil {
				t.Errorf("%s, arrivals x%g: %v", name, s, err)
				continue
			}
			r, err := qbd.SolveR(c.A0, c.A1, c.A2, 1e-14)
			if err != nil {
				diverged++
				if !unstable {
					t.Errorf("%s, arrivals x%g: the drift check accepts a chain whose reduction fails: %v", name, s, err)
				}
				continue
			}
			if sp := spectralRadiusFull(r, 2000); unstable != (sp >= 1-1e-10) {
				t.Errorf("%s, arrivals x%g: sp(R) = %v, refused by the drift check: %v", name, s, sp, unstable)
			}
		}
	}
	t.Logf("%d scaled golden chains: %d refused, %d of them without a converged R", scaled, refused, diverged)
}

// TestNearCriticalRefusedAgainstClosedForm: on one server IF is
// preemptive priority for the inelastic class, so the elastic class's E[T]
// has a closed form (queueing.PreemptiveMM1). At muI = muE = 1 the chain's
// relative drift margin is 2(1 - rho). At rho = 1 - 1e-7 the solve would be
// about 0.5% off, so Solve must refuse it, and not as unstable; at margin
// 1.1e-4, just above the bound, the analysis is within 1e-6 of the closed
// form.
func TestNearCriticalRefusedAgainstClosedForm(t *testing.T) {
	closedForm := func(p queueing.Model) float64 {
		return queueing.NewPreemptiveMM1(p.LambdaI, p.MuI, p.LambdaE, p.MuE).MeanResponseLow()
	}
	p := queueing.ForLoad(1, 1-1e-7, 1, 1)
	res, err := IF(p, Coxian3Moment)
	if err == nil {
		t.Fatalf("rho 1-1e-7: E[T_E] %v, closed form %v, and no error", res.TE, closedForm(p))
	}
	if errors.Is(err, ErrUnstable) || errors.Is(err, qbd.ErrUnstable) || !strings.Contains(err.Error(), "margin") {
		t.Fatalf("rho 1-1e-7: got %v, want the near-critical refusal naming the margin", err)
	}
	p = queueing.ForLoad(1, 1-5.5e-5, 1, 1)
	res, err = IF(p, Coxian3Moment)
	if err != nil {
		t.Fatalf("rho 1-5.5e-5: %v", err)
	}
	if want := closedForm(p); math.Abs(res.TE-want) > 1e-6*want {
		t.Fatalf("rho 1-5.5e-5: E[T_E] %v, closed form %v", res.TE, want)
	}
}

// BenchmarkSolveFigureChains times the solve the figures run, w.Solve on
// one held qbd.Workspace, on figure chains at rho 0.9 and muI = muE = 1: IF
// and EF at k 4 and IF at k 16, the largest phase count the figure set
// solves. Once the workspace is warm a solve allocates nothing.
func BenchmarkSolveFigureChains(b *testing.B) {
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
			var w qbd.Workspace
			if _, err := w.Solve(c); err != nil { // warm the workspace
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := w.Solve(c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
