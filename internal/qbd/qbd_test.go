package qbd

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/queueing"
	"repro/internal/xrand"
)

// levelProb returns the total stationary probability of level l.
func levelProb(s *Solution, l int) float64 {
	rs := len(s.Pi) - 1
	if l < rs {
		return sum(s.Pi[l])
	}
	// pi_{rs+n} = pi_rs R^n.
	v := append([]float64(nil), s.Pi[rs]...)
	for i := rs; i < l; i++ {
		v = vecMul(v, s.R)
	}
	return sum(v)
}

// phaseMarginal returns the stationary phase distribution aggregated over
// all levels.
func phaseMarginal(s *Solution) []float64 {
	rs := len(s.Pi) - 1
	m := len(s.Pi[0])
	out := make([]float64, m)
	for l := 0; l < rs; l++ {
		for p, v := range s.Pi[l] {
			out[p] += v
		}
	}
	tail := vecMul(s.Pi[rs], s.IminusRInv)
	for p, v := range tail {
		out[p] += v
	}
	return out
}

// totalProb returns the total probability mass (should be 1).
func totalProb(s *Solution) float64 {
	return sum(phaseMarginal(s))
}

// vecMul returns x^T * a for a row vector x.
func vecMul(x []float64, a *linalg.Matrix) []float64 {
	out := make([]float64, a.Cols)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			out[j] += xv * v
		}
	}
	return out
}

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
		if math.Abs(levelProb(sol, n)-q.StationaryProb(n)) > 1e-10 {
			t.Fatalf("P(N=%d) = %v, want %v", n, levelProb(sol, n), q.StationaryProb(n))
		}
	}
	if math.Abs(sol.MeanLevel()-q.MeanJobs()) > 1e-10 {
		t.Fatalf("E[N] = %v, want %v", sol.MeanLevel(), q.MeanJobs())
	}
	if math.Abs(totalProb(sol)-1) > 1e-10 {
		t.Fatalf("total probability %v", totalProb(sol))
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
		if math.Abs(levelProb(sol, n)-q.StationaryProb(n)) > 1e-10 {
			t.Fatalf("P(N=%d): qbd %v, formula %v", n, levelProb(sol, n), q.StationaryProb(n))
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

func TestRSatisfiesQuadratic(t *testing.T) {
	c := mh2Chain(0.7, 0.3, 3.0, 0.6)
	r, err := SolveR(c.A0, c.A1, c.A2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	mul := func(a, b *linalg.Matrix) *linalg.Matrix {
		return linalg.MulInto(linalg.NewMatrix(a.Rows, b.Cols), a, b)
	}
	res := mul(r, c.A1)
	linalg.AddInto(res, res, mul(mul(r, r), c.A2))
	linalg.AddInto(res, c.A0, res)
	if res.InfNorm() > 1e-10 {
		t.Fatalf("residual of R equation %v", res.InfNorm())
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

// TestNearCriticalUnstableRefused: chains just past, or at, critical load
// are refused with ErrUnstable. Near sp(R) = 1 logarithmic reduction finds
// R only to about 1e-9, so a check of sp(R) accepted some of these and
// returned mean levels near 1e9. A chain just below critical load is
// refused too, but not as unstable: its relative drift margin is below
// minDriftMargin. Just above that margin M/M/1 solves.
func TestNearCriticalUnstableRefused(t *testing.T) {
	for name, c := range map[string]*Chain{
		"M/M/1, rho 1+1e-6":  mm1Chain(1+1e-6, 1),
		"M/M/1, rho 1+1e-7":  mm1Chain(1+1e-7, 1),
		"M/M/1, rho 1+1e-8":  mm1Chain(1+1e-8, 1),
		"M/M/1, rho 1":       mm1Chain(1, 1),
		"M/H2/1, rho 1+1e-7": mh2Chain((1+1e-7)/1.4, 0.4, 2, 0.5),
	} {
		sol, err := c.Solve()
		if sol != nil {
			t.Errorf("%s: solved, mean level %g", name, sol.MeanLevel())
		} else if !errors.Is(err, ErrUnstable) {
			t.Errorf("%s: got %v, want ErrUnstable", name, err)
		}
	}
	for _, rho := range []float64{1 - 1e-7, 1 - 0.99*minDriftMargin} {
		sol, err := mm1Chain(rho, 1).Solve()
		if sol != nil {
			t.Errorf("M/M/1, rho 1-%.3g: solved, mean level %g", 1-rho, sol.MeanLevel())
		} else if !errors.Is(err, errNearCritical) || errors.Is(err, ErrUnstable) || !strings.Contains(err.Error(), "margin") {
			t.Errorf("M/M/1, rho 1-%.3g: got %v, want the near-critical refusal naming the margin", 1-rho, err)
		}
	}
	rho := 1 - 1.1*minDriftMargin
	sol, err := mm1Chain(rho, 1).Solve()
	if err != nil {
		t.Fatalf("M/M/1, rho 1-%.3g: %v", 1-rho, err)
	}
	if want := queueing.NewMM1(rho, 1).MeanJobs(); math.Abs(sol.MeanLevel()-want) > 1e-6*want {
		t.Errorf("M/M/1, rho 1-%.3g: mean level %v, want %v", 1-rho, sol.MeanLevel(), want)
	}
}

// twoClassChain returns a QBD whose phase generator has one closed class
// per label in class (labels 0 and 1), with random rates drawn from r
// between the phases of a class, in all three repeating blocks.
func twoClassChain(r *xrand.Rand, class []int) *Chain {
	m := len(class)
	a0, a1, a2 := linalg.NewMatrix(m, m), linalg.NewMatrix(m, m), linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if class[i] != class[j] {
				continue
			}
			a0.Set(i, j, r.Float64())
			a2.Set(i, j, r.Float64())
			if i != j {
				a1.Set(i, j, r.Float64())
			}
		}
	}
	local := linalg.NewMatrix(m, m)
	for i := 0; i < m; i++ {
		out := 0.0
		for j := 0; j < m; j++ {
			out += a0.At(i, j) + a1.At(i, j) + a2.At(i, j)
		}
		a1.Set(i, i, -out)
		for j := 0; j < m; j++ {
			local.Set(i, j, a1.At(i, j)+a2.At(i, j))
		}
	}
	return &Chain{Phases: m, Boundary: []BoundaryLevel{{U: a0, Local: local}}, A0: a0, A1: a1, A2: a2}
}

// TestPhaseGeneratorClosedClasses: a phase that A = A0 + A1 + A2 only
// leaves is allowed, but an A with two closed classes is refused before any
// R is sought, with an error that names a phase of one class that cannot
// reach a phase of the other, and is not ErrUnstable.
func TestPhaseGeneratorClosedClasses(t *testing.T) {
	// Phase 1 moves to phase 0 at rate 0.3 and is never entered, so the
	// level is an M/M/1 queue in phase 0.
	lambda, mu := 0.6, 1.0
	diag := func(v float64) *linalg.Matrix { return linalg.FromRows([][]float64{{v, 0}, {0, v}}) }
	transient := &Chain{
		Phases: 2,
		Boundary: []BoundaryLevel{{
			U:     diag(lambda),
			Local: linalg.FromRows([][]float64{{-lambda, 0}, {0.3, -lambda - 0.3}}),
		}},
		A0: diag(lambda),
		A1: linalg.FromRows([][]float64{{-lambda - mu, 0}, {0.3, -lambda - mu - 0.3}}),
		A2: diag(mu),
	}
	sol, err := transient.Solve()
	if err != nil {
		t.Fatalf("transient phase: %v", err)
	}
	if got, want := sol.MeanLevel(), lambda/(mu-lambda); math.Abs(got-want) > 1e-10 {
		t.Errorf("transient phase: mean level %v, want %v", got, want)
	}

	refused := func(name string, c *Chain, class []int) {
		t.Helper()
		_, err := c.Solve()
		var p, q int
		if err == nil || errors.Is(err, ErrUnstable) {
			t.Errorf("%s: got %v, want a closed-class refusal", name, err)
		} else if _, serr := fmt.Sscanf(err.Error(), "qbd: phase %d cannot reach phase %d", &p, &q); serr != nil || class[p] == class[q] {
			t.Errorf("%s (classes %v): %v does not name a phase that cannot reach the other class", name, class, err)
		}
	}
	r := xrand.New(26)
	refused("classes {0, 1} and {2, 3}", twoClassChain(r, []int{0, 0, 1, 1}), []int{0, 0, 1, 1})
	for trial := range 200 {
		m := 2 + r.Intn(7)
		class := make([]int, m)
		for i := range class {
			class[i] = r.Intn(2)
		}
		a := r.Intn(m) // both classes get a phase
		class[a], class[(a+1+r.Intn(m-1))%m] = 0, 1
		refused(fmt.Sprintf("random generator %d", trial), twoClassChain(r, class), class)
	}
}

func TestValidateCatchesBadRowSums(t *testing.T) {
	c := mm1Chain(0.5, 1.0)
	c.A1 = linalg.FromRows([][]float64{{-1}}) // breaks conservation
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a non-conservative generator")
	}
}

func TestValidateShapeErrors(t *testing.T) {
	c := mm1Chain(0.5, 1.0)
	c.A0 = linalg.NewMatrix(2, 2)
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted mismatched block shapes")
	}
	c = mm1Chain(0.5, 1.0)
	c.Boundary = nil
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted empty boundary")
	}
	c = mm1Chain(0.5, 1.0)
	c.Boundary[0].D = linalg.FromRows([][]float64{{1}})
	if err := c.Validate(); err == nil {
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
	marg := phaseMarginal(sol)
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
		if levelProb(sol, n) >= levelProb(sol, n-1) {
			t.Fatalf("level probabilities not decaying at %d", n)
		}
	}
}

func BenchmarkSolveR(b *testing.B) {
	c := mh2Chain(0.9, 0.4, 2.0, 0.5)
	for b.Loop() {
		if _, err := SolveR(c.A0, c.A1, c.A2, 1e-13); err != nil {
			b.Fatal(err)
		}
	}
}
