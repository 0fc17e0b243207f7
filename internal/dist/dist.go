// Package dist is the probability-distribution layer of the BergHMWW20
// (SPAA '20, "Optimal Resource Allocation for Elastic and Inelastic Jobs")
// reproduction.
//
// The paper's stochastic model draws job sizes from exponential
// distributions (the M/M/k analysis of Sections 4-5), while the motivating
// scenarios of Section 1.3 and the Appendix A batch experiments also use
// bounded-Pareto (heavy-tailed ML training jobs) and uniform sizes. The
// Section 5.2 transformation replaces the M/M/1 busy period with a
// two-phase Coxian matched on its first three moments (Coxian2 and
// FitCoxian2; Figures 3c and 7c). internal/mrt makes that fit, and its
// ablation baseline, a mean-matched exponential.
//
// Every distribution implements the Distribution interface: analytic
// moments (Mean, Moment), the distribution function and its inverse
// (CDF, Quantile), and reproducible sampling (Sample) driven by the
// repository's deterministic xrand streams. The one fitter, FitCoxian2,
// returns an error for a moment triple no Coxian2 reproduces rather than
// NaN/Inf parameters, in the spirit of large simulation fleets that
// validate every stochastic input before running.
package dist

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Distribution is a nonnegative continuous distribution with analytic
// moments, an invertible CDF, and deterministic sampling.
type Distribution interface {
	// Mean returns E[X], identical to Moment(1).
	Mean() float64
	// Moment returns the k-th raw moment E[X^k] for k >= 0.
	Moment(k int) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the smallest x with CDF(x) >= p for p in [0, 1).
	// Quantile(1) returns the supremum of the support (possibly +Inf).
	Quantile(p float64) float64
	// Sample draws one variate using r as the sole source of randomness.
	Sample(r *xrand.Rand) float64
}

// checkMomentOrder panics unless k is a valid moment order.
func checkMomentOrder(k int) {
	if k < 0 {
		panic(fmt.Sprintf("dist: Moment called with negative order %d", k))
	}
}

// checkProb panics unless p is a probability.
func checkProb(p float64) {
	if !(p >= 0 && p <= 1) { // catches NaN too
		panic(fmt.Sprintf("dist: Quantile called with p=%v outside [0,1]", p))
	}
}

// factorial returns k! as a float64; k is small (moment orders).
func factorial(k int) float64 {
	f := 1.0
	for i := 2; i <= k; i++ {
		f *= float64(i)
	}
	return f
}

// binom returns the binomial coefficient C(n, k) as a float64.
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// isFinitePos reports whether v is a finite, strictly positive float.
func isFinitePos(v float64) bool {
	return v > 0 && !math.IsInf(v, 1)
}

// relDiff returns |got-want| / |want| (or |got| when want == 0).
func relDiff(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// bisectQuantile inverts a monotone CDF numerically. It brackets the
// quantile by doubling from scale (a positive magnitude such as the mean)
// and then bisects to full float64 resolution. Used by Coxian2, whose CDF
// has no closed-form inverse.
func bisectQuantile(cdf func(float64) float64, p, scale float64) float64 {
	if p <= 0 {
		return 0
	}
	if !isFinitePos(scale) {
		scale = 1
	}
	lo, hi := 0.0, scale
	for cdf(hi) < p {
		lo = hi
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	// Bisection: ~90 iterations reaches the last ulp for any magnitude.
	for i := 0; i < 200; i++ {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break
		}
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
