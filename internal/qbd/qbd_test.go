package qbd

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/queueing"
	"repro/internal/xrand"
)

// mm1Chain encodes M/M/1 as a trivial one-phase QBD.
func mm1Chain(lambda, mu float64) *Chain {
	return &Chain{
		Phases: 1,
		Boundary: []BoundaryLevel{{
			U:     linalg.FromRows([][]float64{{lambda}}),
			Local: linalg.FromRows([][]float64{{-lambda}}),
		}},
		A0: linalg.FromRows([][]float64{{lambda}}),
		A1: linalg.FromRows([][]float64{{-(lambda + mu)}}),
		A2: linalg.FromRows([][]float64{{mu}}),
	}
}

func TestMM1AsQBD(t *testing.T) {
	lambda, mu := 0.6, 1.0
	sol, err := mm1Chain(lambda, mu).Solve()
	if err != nil {
		t.Fatal(err)
	}
	q := queueing.NewMM1(lambda, mu)
	for n := 0; n < 15; n++ {
		if math.Abs(sol.LevelProb(n)-q.StationaryProb(n)) > 1e-10 {
			t.Fatalf("P(N=%d) = %v, want %v", n, sol.LevelProb(n), q.StationaryProb(n))
		}
	}
	if math.Abs(sol.MeanLevel()-q.MeanJobs()) > 1e-10 {
		t.Fatalf("E[N] = %v, want %v", sol.MeanLevel(), q.MeanJobs())
	}
	if math.Abs(sol.TotalProb()-1) > 1e-10 {
		t.Fatalf("total probability %v", sol.TotalProb())
	}
}

// TestMMkAsQBD uses a multi-level boundary: levels 0..k-1 have departure
// rate n*mu; levels >= k repeat with k*mu.
func TestMMkAsQBD(t *testing.T) {
	lambda, mu, k := 3.2, 1.0, 4
	boundary := make([]BoundaryLevel, k)
	for n := 0; n < k; n++ {
		b := BoundaryLevel{
			U:     linalg.FromRows([][]float64{{lambda}}),
			Local: linalg.FromRows([][]float64{{-(lambda + float64(n)*mu)}}),
		}
		if n > 0 {
			b.D = linalg.FromRows([][]float64{{float64(n) * mu}})
		}
		boundary[n] = b
	}
	c := &Chain{
		Phases:   1,
		Boundary: boundary,
		A0:       linalg.FromRows([][]float64{{lambda}}),
		A1:       linalg.FromRows([][]float64{{-(lambda + float64(k)*mu)}}),
		A2:       linalg.FromRows([][]float64{{float64(k) * mu}}),
	}
	sol, err := c.Solve()
	if err != nil {
		t.Fatal(err)
	}
	q := queueing.NewMMk(lambda, mu, k)
	if math.Abs(sol.MeanLevel()-q.MeanJobs()) > 1e-9 {
		t.Fatalf("M/M/%d E[N]: qbd %v, formula %v", k, sol.MeanLevel(), q.MeanJobs())
	}
	for n := 0; n < 12; n++ {
		if math.Abs(sol.LevelProb(n)-q.StationaryProb(n)) > 1e-10 {
			t.Fatalf("P(N=%d): qbd %v, formula %v", n, sol.LevelProb(n), q.StationaryProb(n))
		}
	}
}

// mh2Chain encodes the M/H2/1 queue as a QBD: phase = branch of the
// hyperexponential service of the job at the head of the line.
func mh2Chain(lambda, p, mu1, mu2 float64) *Chain {
	a0 := linalg.FromRows([][]float64{{lambda, 0}, {0, lambda}})
	a1 := linalg.FromRows([][]float64{
		{-(lambda + mu1), 0},
		{0, -(lambda + mu2)},
	})
	// Service completion re-draws the next job's branch.
	a2 := linalg.FromRows([][]float64{
		{mu1 * p, mu1 * (1 - p)},
		{mu2 * p, mu2 * (1 - p)},
	})
	return &Chain{
		Phases: 2,
		Boundary: []BoundaryLevel{{
			U:     linalg.FromRows([][]float64{{lambda * p, lambda * (1 - p)}, {lambda * p, lambda * (1 - p)}}),
			Local: linalg.FromRows([][]float64{{-lambda, 0}, {0, -lambda}}),
		}},
		A0: a0, A1: a1, A2: a2,
	}
}

// TestMH21PollaczekKhinchine checks the two-phase solver against the M/G/1
// mean queue length formula.
func TestMH21PollaczekKhinchine(t *testing.T) {
	lambda, p, mu1, mu2 := 0.5, 0.4, 2.0, 0.5
	es := p/mu1 + (1-p)/mu2                    // 1.4
	es2 := 2 * (p/(mu1*mu1) + (1-p)/(mu2*mu2)) // 5.0
	rho := lambda * es
	wantN := rho + lambda*lambda*es2/(2*(1-rho))
	sol, err := mh2Chain(lambda, p, mu1, mu2).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.MeanLevel()-wantN) > 1e-8 {
		t.Fatalf("E[N] = %v, want %v", sol.MeanLevel(), wantN)
	}
}

// solveRLogReduction is the test-only reference for SolveR: the
// logarithmic-reduction algorithm of Latouche & Ramaswami for the G matrix,
// converted to R via R = A0 (-A1 - A0 G)^{-1}. It converges quadratically,
// by a recursion independent of the functional iteration.
func solveRLogReduction(a0, a1, a2 *linalg.Matrix, tol float64, maxIter int) (*linalg.Matrix, error) {
	negA1Inv, err := linalg.Inverse(linalg.Scale(-1, a1))
	if err != nil {
		return nil, fmt.Errorf("qbd: A1 singular: %w", err)
	}
	m := a0.Rows
	// Note the orientation: for computing G (first passage to the level
	// below), the "down" block drives the recursion.
	h := linalg.Mul(negA1Inv, a0) // up
	l := linalg.Mul(negA1Inv, a2) // down
	g := l.Clone()
	t := h.Clone()
	for iter := 0; iter < maxIter; iter++ {
		u := linalg.AddM(linalg.Mul(h, l), linalg.Mul(l, h))
		iu, err := linalg.Inverse(linalg.SubM(linalg.Identity(m), u))
		if err != nil {
			return nil, fmt.Errorf("qbd: log-reduction pivot singular: %w", err)
		}
		h = linalg.Mul(iu, linalg.Mul(h, h))
		l = linalg.Mul(iu, linalg.Mul(l, l))
		gNext := linalg.AddM(g, linalg.Mul(t, l))
		t = linalg.Mul(t, h)
		if linalg.MaxAbsDiff(gNext, g) < tol {
			g = gNext
			break
		}
		g = gNext
		if iter == maxIter-1 {
			return nil, ErrNotConverged
		}
	}
	denom, err := linalg.Inverse(linalg.Scale(-1, linalg.AddM(a1, linalg.Mul(a0, g))))
	if err != nil {
		return nil, fmt.Errorf("qbd: R conversion singular: %w", err)
	}
	return linalg.Mul(a0, denom), nil
}

// TestRMethodsAgree holds SolveR to the logarithmic-reduction reference.
func TestRMethodsAgree(t *testing.T) {
	c := mh2Chain(0.5, 0.4, 2.0, 0.5)
	r1, err := SolveR(c.A0, c.A1, c.A2, 1e-14, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := solveRLogReduction(c.A0, c.A1, c.A2, 1e-14, 200)
	if err != nil {
		t.Fatal(err)
	}
	if linalg.MaxAbsDiff(r1, r2) > 1e-10 {
		t.Fatalf("R matrices differ by %v", linalg.MaxAbsDiff(r1, r2))
	}
}

func TestRSatisfiesQuadratic(t *testing.T) {
	c := mh2Chain(0.7, 0.3, 3.0, 0.6)
	r, err := SolveR(c.A0, c.A1, c.A2, 1e-14, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res := linalg.AddM(c.A0, linalg.AddM(linalg.Mul(r, c.A1), linalg.Mul(linalg.Mul(r, r), c.A2)))
	if res.InfNorm() > 1e-10 {
		t.Fatalf("residual of R equation %v", res.InfNorm())
	}
}

// TestSparseProductMatchesDense: c plus the product over b's nonzero
// entries equals AddM(c, Mul(a, b)) entry for entry; only a zero's sign may
// differ, which == ignores.
func TestSparseProductMatchesDense(t *testing.T) {
	r := xrand.New(5)
	const m = 6
	a, c := linalg.NewMatrix(m, m), linalg.NewMatrix(m, m)
	for i := range a.Data {
		if r.Float64() < 0.7 {
			a.Data[i] = 2*r.Float64() - 1
		}
		if r.Float64() < 0.5 {
			c.Data[i] = 2*r.Float64() - 1
		}
	}
	diag, single, scattered := linalg.NewMatrix(m, m), linalg.NewMatrix(m, m), linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		diag.Set(i, i, r.Float64())
	}
	single.Set(0, 0, 3)
	for i := range scattered.Data {
		if r.Float64() < 0.3 {
			scattered.Data[i] = 2*r.Float64() - 1
		}
	}
	dst := linalg.NewMatrix(m, m)
	for name, b := range map[string]*linalg.Matrix{"diagonal": diag, "single": single, "scattered": scattered, "zero": linalg.NewMatrix(m, m)} {
		addSparseProduct(dst, c, a, nonzeros(b))
		want := linalg.AddM(c, linalg.Mul(a, b))
		for i := range want.Data {
			if dst.Data[i] != want.Data[i] {
				t.Fatalf("%s: entry %d is %v, dense product %v", name, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

func TestUnstableDetected(t *testing.T) {
	// rho = 1.5 > 1.
	_, err := mm1Chain(1.5, 1.0).Solve()
	if err == nil {
		t.Fatal("unstable chain solved without error")
	}
	if !errors.Is(err, ErrUnstable) && !errors.Is(err, ErrNotConverged) {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestValidateCatchesBadRowSums(t *testing.T) {
	c := mm1Chain(0.5, 1.0)
	c.A1 = linalg.FromRows([][]float64{{-1}}) // breaks conservation
	if err := c.Validate(1e-8); err == nil {
		t.Fatal("Validate accepted a non-conservative generator")
	}
}

func TestValidateShapeErrors(t *testing.T) {
	c := mm1Chain(0.5, 1.0)
	c.A0 = linalg.NewMatrix(2, 2)
	if err := c.Validate(1e-8); err == nil {
		t.Fatal("Validate accepted mismatched block shapes")
	}
	c = mm1Chain(0.5, 1.0)
	c.Boundary = nil
	if err := c.Validate(1e-8); err == nil {
		t.Fatal("Validate accepted empty boundary")
	}
	c = mm1Chain(0.5, 1.0)
	c.Boundary[0].D = linalg.FromRows([][]float64{{1}})
	if err := c.Validate(1e-8); err == nil {
		t.Fatal("Validate accepted a down block on level 0")
	}
}

func TestPhaseMarginalMH21(t *testing.T) {
	// Conditional on being busy, the in-service phase distribution of an
	// M/H2/1 is proportional to beta_i/mu_i (time in branch weighting).
	lambda, p, mu1, mu2 := 0.5, 0.4, 2.0, 0.5
	sol, err := mh2Chain(lambda, p, mu1, mu2).Solve()
	if err != nil {
		t.Fatal(err)
	}
	marg := sol.PhaseMarginal()
	if math.Abs(sum(marg)-1) > 1e-10 {
		t.Fatalf("phase marginal sums to %v", sum(marg))
	}
	// Subtract the idle level (uniform across phases in our encoding).
	busy1 := marg[0] - sol.Pi[0][0]
	busy2 := marg[1] - sol.Pi[0][1]
	wantRatio := (p / mu1) / ((1 - p) / mu2)
	if math.Abs(busy1/busy2-wantRatio) > 1e-6 {
		t.Fatalf("busy phase ratio %v, want %v", busy1/busy2, wantRatio)
	}
}

func TestLevelProbDecays(t *testing.T) {
	sol, err := mm1Chain(0.8, 1.0).Solve()
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < 30; n++ {
		if sol.LevelProb(n) >= sol.LevelProb(n-1) {
			t.Fatalf("level probabilities not decaying at %d", n)
		}
	}
}

func BenchmarkSolveRIteration(b *testing.B) {
	c := mh2Chain(0.9, 0.4, 2.0, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveR(c.A0, c.A1, c.A2, 1e-13, 1_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveRLogReduction(b *testing.B) {
	c := mh2Chain(0.9, 0.4, 2.0, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveRLogReduction(c.A0, c.A1, c.A2, 1e-13, 200); err != nil {
			b.Fatal(err)
		}
	}
}
