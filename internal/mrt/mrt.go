// Package mrt computes mean response times under the Elastic-First and
// Inelastic-First policies with the paper's Section 5 / Appendix D analysis
// pipeline:
//
//  1. The exact 2D-infinite chain (Figure 3a / 7a) is reduced to a
//     1D-infinite chain by replacing the periods during which one class
//     starves — an M/M/1 busy period — with special states (Figure 3b/7b).
//  2. The non-exponential busy period is represented by a Coxian-2 matched
//     on its first three moments (Figure 3c/7c; fitBusyPeriod, with
//     queueing's busy-period moments and dist.FitCoxian2).
//  3. The resulting quasi-birth-death chain is solved with matrix-analytic
//     methods (internal/qbd), yielding the starved class's mean queue
//     length.
//  4. The favored class is exact in closed form: under EF the elastic class
//     is an M/M/1 with service rate k*muE; under IF the inelastic class is
//     an M/M/k.
//
// The paper reports this approximation matches simulation within 1%; the
// test suite and the validation benchmark reproduce that comparison.
package mrt

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/linalg"
	"repro/internal/qbd"
	"repro/internal/queueing"
)

// ErrUnstable reports that the requested configuration has rho >= 1 (or a
// per-class stability violation).
var ErrUnstable = errors.New("mrt: configuration is unstable")

// validate checks that p is a valid model with rho < 1.
func validate(p queueing.Model) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("mrt: %w", err)
	}
	if p.Rho() >= 1 {
		return fmt.Errorf("%w: rho=%g", ErrUnstable, p.Rho())
	}
	return nil
}

// BusyPeriodFit selects how the busy period is absorbed into the 1D chain.
type BusyPeriodFit int

const (
	// Coxian3Moment is the paper's choice: match three moments.
	Coxian3Moment BusyPeriodFit = iota
	// Exponential1Moment matches only the mean; ablation baseline.
	Exponential1Moment
)

// Result is the analytic output for one policy.
type Result struct {
	Policy string
	// T is the overall mean response time; TI and TE the per-class means.
	T, TI, TE float64
	// NI and NE are the per-class mean queue lengths (Little's law).
	NI, NE float64
}

// phaseCox is the busy-period phase structure shared by both chains: the
// fitted Coxian is either 2-phase (b1, b2) or effectively 1-phase when the
// fit degenerates (P = 0 at vanishing load).
type phaseCox struct {
	g1, g2, g3 float64 // b1->exit, b1->b2, b2->exit
}

// fitBusyPeriod fits the M/M/1 busy period with arrival rate lambda and
// service rate mu, and writes its phase rates. Coxian3Moment matches the
// period's first three moments with a Coxian-2 (Exp(Mu1), then with
// probability P an Exp(Mu2)); Exponential1Moment matches only the mean.
func fitBusyPeriod(lambda, mu float64, fit BusyPeriodFit) (phaseCox, error) {
	m1, m2, m3 := queueing.NewMM1(lambda, mu).BusyPeriodMoments()
	switch fit {
	case Coxian3Moment:
		c, err := dist.FitCoxian2(m1, m2, m3)
		if err != nil {
			return phaseCox{}, err
		}
		return phaseCox{g1: c.Mu1 * (1 - c.P), g2: c.Mu1 * c.P, g3: c.Mu2}, nil
	case Exponential1Moment:
		// One phase: b1 exits at the mean-matched rate; b2 unreachable.
		return phaseCox{g1: 1 / m1, g2: 0, g3: 1}, nil
	}
	return phaseCox{}, fmt.Errorf("mrt: unknown busy-period fit %d", fit)
}

// EF computes mean response times under Elastic-First: the inelastic class
// from the chain of efChain, the elastic class as an M/M/1 with service
// rate k*muE.
func EF(p queueing.Model, fit BusyPeriodFit) (Result, error) {
	chain, err := efChain(p, fit)
	if err != nil {
		return Result{}, err
	}
	sol, err := chain.Solve()
	if err != nil {
		return Result{}, fmt.Errorf("mrt: EF chain solve: %w", err)
	}

	ni := sol.MeanLevel()
	ti := ni / p.LambdaI
	te := queueing.NewMM1(p.LambdaE, float64(p.K)*p.MuE).MeanResponse()
	ne := p.LambdaE * te
	return Result{
		Policy: "EF",
		TI:     ti, TE: te, NI: ni, NE: ne,
		T: (p.LambdaI*ti + p.LambdaE*te) / (p.LambdaI + p.LambdaE),
	}, nil
}

// efChain builds the QBD chain EF solves.
//
// Chain structure (Figure 3c): level = number of inelastic jobs; phases
// {0 = no elastic busy period, b1, b2}. Inelastic jobs are served only in
// phase 0 (at rate min(level, k)*muI); an elastic arrival in phase 0 starts
// a busy period of the elastic M/M/1 with service rate k*muE.
func efChain(p queueing.Model, fit BusyPeriodFit) (*qbd.Chain, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	kmuE := float64(p.K) * p.MuE
	if p.LambdaE >= kmuE {
		return nil, fmt.Errorf("%w: elastic class overloaded under EF", ErrUnstable)
	}
	cox, err := fitBusyPeriod(p.LambdaE, kmuE, fit)
	if err != nil {
		return nil, err
	}

	const m = 3 // phases: 0, b1, b2
	phaseGen := func() *linalg.Matrix {
		g := linalg.NewMatrix(m, m)
		// 0 -> b1: elastic arrival opens a busy period.
		g.Add(0, 1, p.LambdaE)
		g.Add(0, 0, -p.LambdaE)
		// b1 -> 0 and b1 -> b2.
		g.Add(1, 0, cox.g1)
		g.Add(1, 2, cox.g2)
		g.Add(1, 1, -(cox.g1 + cox.g2))
		// b2 -> 0.
		g.Add(2, 0, cox.g3)
		g.Add(2, 2, -cox.g3)
		return g
	}

	mkLevel := func(downRate float64) qbd.BoundaryLevel {
		u := linalg.Scale(p.LambdaI, linalg.Identity(m))
		local := phaseGen()
		for ph := 0; ph < m; ph++ {
			local.Add(ph, ph, -p.LambdaI)
		}
		var d *linalg.Matrix
		if downRate > 0 {
			d = linalg.NewMatrix(m, m)
			d.Set(0, 0, downRate) // inelastic served only in phase 0
			local.Add(0, 0, -downRate)
		}
		return qbd.BoundaryLevel{U: u, Local: local, D: d}
	}

	boundary := make([]qbd.BoundaryLevel, p.K)
	for l := 0; l < p.K; l++ {
		boundary[l] = mkLevel(float64(l) * p.MuI)
	}
	rep := mkLevel(float64(p.K) * p.MuI)
	return &qbd.Chain{
		Phases:   m,
		Boundary: boundary,
		A0:       rep.U,
		A1:       rep.Local,
		A2:       rep.D,
	}, nil
}

// IF computes mean response times under Inelastic-First: the elastic class
// from the chain of ifChain, the inelastic class as an M/M/k.
func IF(p queueing.Model, fit BusyPeriodFit) (Result, error) {
	chain, err := ifChain(p, fit)
	if err != nil {
		return Result{}, err
	}
	sol, err := chain.Solve()
	if err != nil {
		return Result{}, fmt.Errorf("mrt: IF chain solve: %w", err)
	}

	ne := sol.MeanLevel()
	te := ne / p.LambdaE
	ti := queueing.NewMMk(p.LambdaI, p.MuI, p.K).MeanResponse()
	ni := p.LambdaI * ti
	return Result{
		Policy: "IF",
		TI:     ti, TE: te, NI: ni, NE: ne,
		T: (p.LambdaI*ti + p.LambdaE*te) / (p.LambdaI + p.LambdaE),
	}, nil
}

// ifChain builds the QBD chain IF solves.
//
// Chain structure (Figure 7c): level = number of elastic jobs; phases
// {0..k-1 = number of inelastic jobs, b1, b2 = the excess period with >= k
// inelastic jobs}. Elastic jobs are served at rate (k-i)*muE in phase i and
// not at all during the excess period, which is an M/M/1 busy period with
// arrival lambdaI and service rate k*muI.
func ifChain(p queueing.Model, fit BusyPeriodFit) (*qbd.Chain, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	kmuI := float64(p.K) * p.MuI
	if p.LambdaI >= kmuI {
		return nil, fmt.Errorf("%w: inelastic class overloaded under IF", ErrUnstable)
	}
	cox, err := fitBusyPeriod(p.LambdaI, kmuI, fit)
	if err != nil {
		return nil, err
	}

	m := p.K + 2 // phases 0..k-1, b1 = k, b2 = k+1
	b1, b2 := p.K, p.K+1
	phaseGen := func() *linalg.Matrix {
		g := linalg.NewMatrix(m, m)
		for i := 0; i < p.K; i++ {
			// Inelastic arrival.
			if i < p.K-1 {
				g.Add(i, i+1, p.LambdaI)
			} else {
				g.Add(i, b1, p.LambdaI)
			}
			g.Add(i, i, -p.LambdaI)
			// Inelastic departure.
			if i > 0 {
				g.Add(i, i-1, float64(i)*p.MuI)
				g.Add(i, i, -float64(i)*p.MuI)
			}
		}
		// Excess-period Coxian: exits return to k-1 inelastic jobs.
		g.Add(b1, p.K-1, cox.g1)
		g.Add(b1, b2, cox.g2)
		g.Add(b1, b1, -(cox.g1 + cox.g2))
		g.Add(b2, p.K-1, cox.g3)
		g.Add(b2, b2, -cox.g3)
		return g
	}

	elasticRate := func(ph int) float64 {
		if ph >= p.K {
			return 0 // starved during the excess period
		}
		return float64(p.K-ph) * p.MuE
	}

	// Boundary level 0: no elastic jobs, no down transitions.
	local0 := phaseGen()
	for ph := 0; ph < m; ph++ {
		local0.Add(ph, ph, -p.LambdaE)
	}
	boundary := []qbd.BoundaryLevel{{
		U:     linalg.Scale(p.LambdaE, linalg.Identity(m)),
		Local: local0,
	}}

	// Repeating levels >= 1.
	a1 := phaseGen()
	a2 := linalg.NewMatrix(m, m)
	for ph := 0; ph < m; ph++ {
		a1.Add(ph, ph, -p.LambdaE)
		if r := elasticRate(ph); r > 0 {
			a2.Set(ph, ph, r)
			a1.Add(ph, ph, -r)
		}
	}
	return &qbd.Chain{
		Phases:   m,
		Boundary: boundary,
		A0:       linalg.Scale(p.LambdaE, linalg.Identity(m)),
		A1:       a1,
		A2:       a2,
	}, nil
}

// Analyze computes both policies with the paper's three-moment fit.
func Analyze(p queueing.Model) (ifRes, efRes Result, err error) {
	ifRes, err = IF(p, Coxian3Moment)
	if err != nil {
		return Result{}, Result{}, err
	}
	efRes, err = EF(p, Coxian3Moment)
	if err != nil {
		return Result{}, Result{}, err
	}
	return ifRes, efRes, nil
}
