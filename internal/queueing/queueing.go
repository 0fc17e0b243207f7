// Package queueing holds the paper's model (Model, which every evaluator
// takes: mrt, ctmc, mdp and workload's generator) and the closed-form
// results from classical queueing theory that the analysis pipeline
// composes with matrix-analytic solutions.
//
// Under Elastic-First, elastic jobs see an M/M/1 queue with service rate
// k*muE (Observation 1 in Section 5.2); under Inelastic-First, inelastic
// jobs see an M/M/k queue (Appendix D). The busy-period moments feed the
// Coxian fit of the busy-period transformation. The same formulas double as
// oracles for simulator and CTMC-solver tests.
package queueing

import (
	"fmt"
	"math"
)

// MM1 describes an M/M/1 queue with Poisson arrival rate Lambda and
// exponential service rate Mu.
type MM1 struct {
	Lambda, Mu float64
}

// NewMM1 returns an M/M/1 descriptor; it panics unless both rates are
// positive.
func NewMM1(lambda, mu float64) MM1 {
	if lambda <= 0 || mu <= 0 {
		panic("queueing: M/M/1 rates must be positive")
	}
	return MM1{Lambda: lambda, Mu: mu}
}

// Rho returns the utilization lambda/mu.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// Stable reports whether the queue is stable (rho < 1).
func (q MM1) Stable() bool { return q.Rho() < 1 }

// MeanJobs returns E[N] = rho/(1-rho). It panics when unstable.
func (q MM1) MeanJobs() float64 {
	q.mustBeStable()
	rho := q.Rho()
	return rho / (1 - rho)
}

// MeanResponse returns E[T] = 1/(mu-lambda). It panics when unstable.
func (q MM1) MeanResponse() float64 {
	q.mustBeStable()
	return 1 / (q.Mu - q.Lambda)
}

// StationaryProb returns P{N = n} = (1-rho) rho^n.
func (q MM1) StationaryProb(n int) float64 {
	q.mustBeStable()
	rho := q.Rho()
	return (1 - rho) * math.Pow(rho, float64(n))
}

// BusyPeriodMoments returns the first three raw moments of the M/M/1 busy
// period: the time from an arrival into an empty system until the system
// next empties. These are the M/G/1 busy-period formulas specialized to
// exponential service:
//
//	E[B]   = E[S]/(1-rho)
//	E[B^2] = E[S^2]/(1-rho)^3
//	E[B^3] = E[S^3]/(1-rho)^4 + 3 lambda E[S^2]^2/(1-rho)^5
func (q MM1) BusyPeriodMoments() (m1, m2, m3 float64) {
	q.mustBeStable()
	rho := q.Rho()
	s1 := 1 / q.Mu
	s2 := 2 / (q.Mu * q.Mu)
	s3 := 6 / (q.Mu * q.Mu * q.Mu)
	m1 = s1 / (1 - rho)
	m2 = s2 / math.Pow(1-rho, 3)
	m3 = s3/math.Pow(1-rho, 4) + 3*q.Lambda*s2*s2/math.Pow(1-rho, 5)
	return m1, m2, m3
}

func (q MM1) mustBeStable() {
	if !q.Stable() {
		panic(fmt.Sprintf("queueing: unstable M/M/1 (rho=%g)", q.Rho()))
	}
}

// MMk describes an M/M/k queue: Poisson arrivals at rate Lambda, K servers,
// each serving at exponential rate Mu, FCFS.
type MMk struct {
	Lambda, Mu float64
	K          int
}

// NewMMk returns an M/M/k descriptor; it panics on non-positive parameters.
func NewMMk(lambda, mu float64, k int) MMk {
	if lambda <= 0 || mu <= 0 || k < 1 {
		panic("queueing: M/M/k requires positive rates and k >= 1")
	}
	return MMk{Lambda: lambda, Mu: mu, K: k}
}

// Rho returns the per-server utilization lambda/(k*mu).
func (q MMk) Rho() float64 { return q.Lambda / (float64(q.K) * q.Mu) }

// Stable reports whether the queue is stable.
func (q MMk) Stable() bool { return q.Rho() < 1 }

// ErlangC returns the probability that an arriving job must queue,
// P{wait > 0}, computed with the numerically stable iterative form of the
// Erlang-C formula.
func (q MMk) ErlangC() float64 {
	q.mustBeStable()
	a := q.Lambda / q.Mu // offered load in Erlangs
	k := q.K
	// Iteratively compute the Erlang-B blocking probability, then convert.
	b := 1.0
	for i := 1; i <= k; i++ {
		b = a * b / (float64(i) + a*b)
	}
	rho := q.Rho()
	return b / (1 - rho*(1-b))
}

// MeanWait returns the mean queueing delay E[W] (time before service).
func (q MMk) MeanWait() float64 {
	q.mustBeStable()
	return q.ErlangC() / (float64(q.K)*q.Mu - q.Lambda)
}

// MeanResponse returns E[T] = E[W] + 1/mu.
func (q MMk) MeanResponse() float64 {
	return q.MeanWait() + 1/q.Mu
}

// MeanJobs returns E[N] via Little's law.
func (q MMk) MeanJobs() float64 {
	return q.Lambda * q.MeanResponse()
}

// StationaryProb returns P{N = n} for the M/M/k birth-death chain.
func (q MMk) StationaryProb(n int) float64 {
	q.mustBeStable()
	p0 := q.probEmpty()
	a := q.Lambda / q.Mu
	if n <= q.K {
		return p0 * math.Pow(a, float64(n)) / factorialF(n)
	}
	return p0 * math.Pow(a, float64(n)) /
		(factorialF(q.K) * math.Pow(float64(q.K), float64(n-q.K)))
}

func (q MMk) probEmpty() float64 {
	a := q.Lambda / q.Mu
	rho := q.Rho()
	sum := 0.0
	term := 1.0 // a^0/0!
	for i := 0; i < q.K; i++ {
		sum += term
		term *= a / float64(i+1)
	}
	// term is now a^k/k!.
	sum += term / (1 - rho)
	return 1 / sum
}

func (q MMk) mustBeStable() {
	if !q.Stable() {
		panic(fmt.Sprintf("queueing: unstable M/M/k (rho=%g)", q.Rho()))
	}
}

func factorialF(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// Model is the paper's model (Section 2): k servers; inelastic jobs arrive
// as a Poisson process at rate LambdaI with Exp(MuI) sizes, elastic jobs at
// rate LambdaE with Exp(MuE) sizes. The no-arrival batches of Theorem 6
// leave both arrival rates zero.
type Model struct {
	K                int
	LambdaI, LambdaE float64
	MuI, MuE         float64
}

// ForLoad returns the model with total load rho on k servers and
// lambdaI = lambdaE, the parameterization of every figure in the paper.
// From Eq. 1 with lambdaI = lambdaE = lambda:
//
//	lambda = rho * k / (1/muI + 1/muE)
//
// It panics unless 0 < rho < 1.
func ForLoad(k int, rho, muI, muE float64) Model {
	if rho <= 0 || rho >= 1 {
		panic("queueing: ForLoad requires 0 < rho < 1")
	}
	lambda := rho * float64(k) / (1/muI + 1/muE)
	return Model{K: k, LambdaI: lambda, LambdaE: lambda, MuI: muI, MuE: muE}
}

// Rho returns the system load of Eq. 1:
// rho = lambdaI/(k muI) + lambdaE/(k muE).
func (m Model) Rho() float64 {
	return m.LambdaI/(float64(m.K)*m.MuI) + m.LambdaE/(float64(m.K)*m.MuE)
}

// Validate reports an error unless k >= 1 and all four rates are positive.
// It checks no stability: an evaluator that needs rho < 1 checks Rho.
func (m Model) Validate() error {
	if m.K < 1 || m.LambdaI <= 0 || m.LambdaE <= 0 || m.MuI <= 0 || m.MuE <= 0 {
		return fmt.Errorf("queueing: invalid model %+v", m)
	}
	return nil
}
