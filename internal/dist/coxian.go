package dist

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Coxian2 is the two-phase Coxian distribution of the paper's Section 5.2
// busy-period transformation: an Exp(Mu1) phase, followed with probability
// P by an Exp(Mu2) phase. The three free parameters are exactly enough to
// match the first three moments of the M/M/1 busy period (Figures 3c, 7c).
type Coxian2 struct {
	Mu1, Mu2 float64
	P        float64
}

// Mean returns 1/Mu1 + P/Mu2.
func (c Coxian2) Mean() float64 { return 1/c.Mu1 + c.P/c.Mu2 }

// Moment returns E[X^k] for X = Exp(Mu1) + Bernoulli(P)*Exp(Mu2) by the
// binomial expansion of the independent sum.
func (c Coxian2) Moment(k int) float64 {
	checkMomentOrder(k)
	m := factorial(k) / math.Pow(c.Mu1, float64(k))
	for j := 1; j <= k; j++ {
		m += c.P * binom(k, j) *
			factorial(k-j) / math.Pow(c.Mu1, float64(k-j)) *
			factorial(j) / math.Pow(c.Mu2, float64(j))
	}
	return m
}

// CDF returns P(X <= x) in closed form: a (1-P, P) mixture of Exp(Mu1)
// and the hypoexponential Exp(Mu1)+Exp(Mu2). The hypoexponential term is
// evaluated as 1 - e^(-a*x)(1 + a*phi) with a = min(Mu1, Mu2), d = |Mu1-Mu2|
// and phi = -expm1(-d*x)/d: algebraically identical to the textbook
// (Mu2*e^(-Mu1*x) - Mu1*e^(-Mu2*x))/(Mu2-Mu1) but free of its catastrophic
// cancellation as Mu1 -> Mu2, so no accuracy cliff near equal rates.
func (c Coxian2) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	a, b := c.Mu1, c.Mu2 // the hypoexponential sum is symmetric in the rates
	if a > b {
		a, b = b, a
	}
	phi := x // d -> 0 limit (Erlang-2)
	if d := b - a; d > 0 {
		phi = -math.Expm1(-d*x) / d
	}
	ea := math.Exp(-a * x)
	hypo := 1 - ea*(1+a*phi)
	return (1-c.P)*(1-math.Exp(-c.Mu1*x)) + c.P*hypo
}

// Quantile inverts the CDF numerically.
func (c Coxian2) Quantile(p float64) float64 {
	checkProb(p)
	if p >= 1 {
		return math.Inf(1)
	}
	return bisectQuantile(c.CDF, p, c.Mean())
}

// Sample draws the first phase and, with probability P, the second.
func (c Coxian2) Sample(r *xrand.Rand) float64 {
	x := r.Exp(c.Mu1)
	if r.Bernoulli(c.P) {
		x += r.Exp(c.Mu2)
	}
	return x
}

// valid reports whether the parameters describe a proper distribution.
func (c Coxian2) valid() bool {
	return isFinitePos(c.Mu1) && isFinitePos(c.Mu2) && c.P >= 0 && c.P <= 1
}

// FitCoxian2 fits a Coxian2 to the first three raw moments (m1, m2, m3).
// Writing x = 1/Mu1 and u = 1/Mu2, eliminating P from the moment equations
// leaves the quadratic
//
//	(m2/2 - m1^2) x^2 + (m1*m2/2 - m3/6) x + (m1*m3/6 - m2^2/4) = 0,
//
// after which u = (m2/2 - x*m1)/(m1 - x) and P = (m1 - x)/u. A root is
// accepted only if it yields Mu1, Mu2 > 0 and P in [0, 1]; moment triples
// outside the Coxian2-representable region return an error. Exponential
// moments (cv2 = 1) short-circuit to P = 0.
func FitCoxian2(m1, m2, m3 float64) (Coxian2, error) {
	if !isFinitePos(m1) || !isFinitePos(m2) || !isFinitePos(m3) {
		return Coxian2{}, fmt.Errorf("dist: FitCoxian2(%v, %v, %v): moments must be finite and positive", m1, m2, m3)
	}
	if m2 <= m1*m1 {
		return Coxian2{}, fmt.Errorf("dist: FitCoxian2(%v, %v, %v): m2 <= m1^2 leaves no variance", m1, m2, m3)
	}
	// Exponential short-circuit: both higher moments within 1e-12 relative.
	if math.Abs(m2-2*m1*m1) <= 1e-12*m2 && math.Abs(m3-6*m1*m1*m1) <= 1e-12*m3 {
		return Coxian2{Mu1: 1 / m1, Mu2: 1 / m1, P: 0}, nil
	}

	a := m2/2 - m1*m1
	b := m1*m2/2 - m3/6
	cc := m1*m3/6 - m2*m2/4

	var roots []float64
	if math.Abs(a) <= 1e-14*(m2/2+m1*m1) {
		// cv2 == 1 exactly but m3 off-exponential: the quadratic degenerates.
		if b != 0 {
			roots = []float64{-cc / b}
		}
	} else {
		disc := b*b - 4*a*cc
		if disc < 0 {
			return Coxian2{}, fmt.Errorf("dist: FitCoxian2(%v, %v, %v): no real phase rates (discriminant %v)", m1, m2, m3, disc)
		}
		// Citardauq form: when |4ac| << b^2 the naive (-b±s)/2a cancels
		// catastrophically on the small root; q/a and cc/q are both stable.
		s := math.Sqrt(disc)
		q := -(b + math.Copysign(s, b)) / 2
		if q != 0 {
			roots = []float64{q / a, cc / q}
		}
	}

	for _, x := range roots {
		if !(x > 0) || !(x < m1) {
			continue
		}
		u := (m2/2 - x*m1) / (m1 - x)
		if !(u > 0) {
			continue
		}
		c := Coxian2{Mu1: 1 / x, Mu2: 1 / u, P: (m1 - x) / u}
		// Accept only if the parameters actually reproduce the targets:
		// near the representability boundary the algebra above can be too
		// ill-conditioned to honor the fitter's contract.
		if c.valid() &&
			relDiff(c.Moment(1), m1) < 1e-7 &&
			relDiff(c.Moment(2), m2) < 1e-7 &&
			relDiff(c.Moment(3), m3) < 1e-7 {
			return c, nil
		}
	}
	return Coxian2{}, fmt.Errorf("dist: FitCoxian2(%v, %v, %v): moment triple is not Coxian2-representable", m1, m2, m3)
}
