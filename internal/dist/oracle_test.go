package dist

import (
	"math"
	"testing"
)

// Closed-form oracle tests: every assertion compares the implementation
// against an independently derived analytic value (exact rationals, logs,
// and exponentials written out in the test, or high-precision numeric
// integration of the density) to within 1e-9 or better.

const oracleTol = 1e-9

func absErr(got, want float64) float64 { return math.Abs(got - want) }

func TestExponentialOracle(t *testing.T) {
	e := NewExponential(2)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"mean", e.Mean(), 0.5},
		{"moment0", e.Moment(0), 1},
		{"moment1", e.Moment(1), 0.5},
		{"moment2", e.Moment(2), 0.5},  // 2!/2^2
		{"moment3", e.Moment(3), 0.75}, // 3!/2^3
		{"moment4", e.Moment(4), 1.5},  // 4!/2^4
		{"median", e.Quantile(0.5), math.Ln2 / 2},
		{"q0", e.Quantile(0), 0},
		{"cdf-median", e.CDF(math.Ln2 / 2), 0.5},
		{"cdf1", e.CDF(1), 1 - math.Exp(-2)},
		{"cdf-neg", e.CDF(-1), 0},
	}
	for _, c := range checks {
		if absErr(c.got, c.want) > oracleTol {
			t.Errorf("Exponential(2) %s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestUniformOracle(t *testing.T) {
	u := NewUniform(1, 3)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"mean", u.Mean(), 2},
		{"moment1", u.Moment(1), 2},
		{"moment2", u.Moment(2), 13.0 / 3}, // (27-1)/(3*2)
		{"moment3", u.Moment(3), 10},       // (81-1)/(4*2)
		{"q25", u.Quantile(0.25), 1.5},
		{"q1", u.Quantile(1), 3},
		{"cdf2.5", u.CDF(2.5), 0.75},
		{"cdf-below", u.CDF(0.5), 0},
		{"cdf-above", u.CDF(4), 1},
	}
	for _, c := range checks {
		if absErr(c.got, c.want) > oracleTol {
			t.Errorf("Uniform(1,3) %s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestBoundedParetoExactOracle uses alpha = 2 on [1, 4], where the moment
// integrals collapse to exact rationals: the normalizing mass is 15/16, so
// E[X] = (32/15)(3/4) = 8/5, E[X^3] = (32/15)*3 = 32/5, and the k = alpha
// resonance E[X^2] = (32/15) ln 4.
func TestBoundedParetoExactOracle(t *testing.T) {
	b := NewBoundedPareto(2, 1, 4)
	checks := []struct {
		name      string
		got, want float64
	}{
		{"mean", b.Mean(), 1.6},
		{"moment1", b.Moment(1), 1.6},
		{"moment2-log-branch", b.Moment(2), 32.0 / 15 * math.Log(4)},
		{"moment3", b.Moment(3), 6.4},
		{"cdf2", b.CDF(2), 0.8}, // (1 - 1/4)/(15/16)
		{"q80", b.Quantile(0.8), 2},
		{"q0", b.Quantile(0), 1},
		{"q1", b.Quantile(1), 4},
	}
	for _, c := range checks {
		if absErr(c.got, c.want) > oracleTol {
			t.Errorf("BoundedPareto(2,1,4) %s = %v, want %v", c.name, c.got, c.want)
		}
	}

	// The k = alpha = 1 resonance with lo = 1, hi = e gives the exact mean
	// e/(e-1): the density integrates to a pure logarithm.
	b1 := NewBoundedPareto(1, 1, math.E)
	if want := math.E / (math.E - 1); absErr(b1.Mean(), want) > oracleTol {
		t.Errorf("BoundedPareto(1,1,e) mean = %v, want e/(e-1) = %v", b1.Mean(), want)
	}
}

// TestBoundedParetoIntegralOracle cross-checks the generic (non-resonant)
// closed forms against composite-Simpson integration of the density
// alpha*lo^alpha*x^(-alpha-1)/(1-(lo/hi)^alpha), an oracle independent of
// the implementation's antiderivative.
func TestBoundedParetoIntegralOracle(t *testing.T) {
	const alpha, lo, hi = 2.5, 1.0, 10.0
	b := NewBoundedPareto(alpha, lo, hi)
	density := func(x float64) float64 {
		return alpha * math.Pow(lo, alpha) * math.Pow(x, -alpha-1) / (1 - math.Pow(lo/hi, alpha))
	}
	simpson := func(f func(float64) float64, a, c float64, n int) float64 {
		h := (c - a) / float64(n)
		sum := f(a) + f(c)
		for i := 1; i < n; i++ {
			x := a + float64(i)*h
			if i%2 == 1 {
				sum += 4 * f(x)
			} else {
				sum += 2 * f(x)
			}
		}
		return sum * h / 3
	}
	const n = 1 << 20 // smooth integrand: error far below 1e-11
	for k := 1; k <= 3; k++ {
		kk := float64(k)
		want := simpson(func(x float64) float64 { return math.Pow(x, kk) * density(x) }, lo, hi, n)
		if relDiff(b.Moment(k), want) > oracleTol {
			t.Errorf("BoundedPareto(2.5,1,10) Moment(%d) = %v, integral oracle %v", k, b.Moment(k), want)
		}
	}
	for _, x := range []float64{1.5, 2, 5, 9.5} {
		want := simpson(density, lo, x, n)
		if absErr(b.CDF(x), want) > oracleTol {
			t.Errorf("BoundedPareto(2.5,1,10) CDF(%v) = %v, integral oracle %v", x, b.CDF(x), want)
		}
	}
}

func TestCoxian2Oracle(t *testing.T) {
	c := Coxian2{Mu1: 4, Mu2: 0.5, P: 0.25}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"mean", c.Mean(), 0.75}, // 1/4 + 0.25/0.5
		{"moment1", c.Moment(1), 0.75},
		{"moment2", c.Moment(2), 2.375}, // 2/16 + 2P/(mu1 mu2) + 2P/mu2^2
		{"moment3", c.Moment(3), 13.78125},
	}
	for _, ck := range checks {
		if absErr(ck.got, ck.want) > oracleTol {
			t.Errorf("Coxian2 %s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
	// CDF against the hypoexponential mixture written out directly.
	for _, x := range []float64{0.1, 0.75, 2, 10} {
		hypo := 1 - (0.5*math.Exp(-4*x)-4*math.Exp(-0.5*x))/(0.5-4)
		want := 0.75*(1-math.Exp(-4*x)) + 0.25*hypo
		if absErr(c.CDF(x), want) > oracleTol {
			t.Errorf("Coxian2 CDF(%v) = %v, want %v", x, c.CDF(x), want)
		}
	}
	for _, p := range []float64{0.05, 0.5, 0.99} {
		if q := c.Quantile(p); absErr(c.CDF(q), p) > oracleTol {
			t.Errorf("Coxian2 CDF(Quantile(%v)) = %v", p, c.CDF(q))
		}
	}

	// Equal-rate Coxian2 is the Erlang-2 branch of the CDF.
	er := Coxian2{Mu1: 3, Mu2: 3, P: 1}
	for _, x := range []float64{0.2, 1, 3} {
		want := 1 - math.Exp(-3*x)*(1+3*x)
		if absErr(er.CDF(x), want) > oracleTol {
			t.Errorf("Erlang-2 CDF(%v) = %v, want %v", x, er.CDF(x), want)
		}
	}
}

// TestCoxianExtremeRateRegressions pins a numerically hostile regime found
// in review: rates separated by 1e-11 relative (which once cancelled
// catastrophically in the textbook hypoexponential formula).
func TestCoxianExtremeRateRegressions(t *testing.T) {
	near := Coxian2{Mu1: 1, Mu2: 1 + 1e-11, P: 1}
	got := near.CDF(1.5)
	want := 1 - math.Exp(-1.5)*(1+1.5) // Erlang-2 limit, correct to ~1.5e-11
	if absErr(got, want) > 1e-10 {
		t.Errorf("near-equal-rate Coxian2 CDF(1.5) = %v, want %v", got, want)
	}
}

// TestQuantileEndpoints: p = 0 and p = 1 hit the support endpoints for
// every family (infinite-support families return +Inf at p = 1).
func TestQuantileEndpoints(t *testing.T) {
	c2 := Coxian2{Mu1: 4, Mu2: 0.5, P: 0.25}
	for _, d := range []Distribution{NewExponential(1), c2} {
		if q := d.Quantile(0); q != 0 {
			t.Errorf("%T Quantile(0) = %v", d, q)
		}
		if q := d.Quantile(1); !math.IsInf(q, 1) {
			t.Errorf("%T Quantile(1) = %v, want +Inf", d, q)
		}
	}
	if q := c2.CDF(-1); q != 0 {
		t.Errorf("Coxian2 CDF(-1) = %v", q)
	}
}
