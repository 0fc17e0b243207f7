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
//
// IF and EF build their chain and solve it in a workspace taken from a
// sync.Pool and put back before they return: the chain's blocks, the
// boundary levels and a qbd.Workspace, all on storage that only grows. So
// every goroutine that runs analysis points, a pool worker of package exp
// or a fabric worker, reuses buffers from one point to the next, and a
// warm call allocates nothing (TestAnalysisAllocs).
package mrt

import (
	"errors"
	"fmt"
	"sync"

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

// workspace is what one IF or EF call builds and solves its chain in. Its
// zero value is ready to use; it is not safe for concurrent use.
type workspace struct {
	solver qbd.Workspace
	data   []float64 // the blocks' entries
	blocks []linalg.Matrix
	levels []qbd.BoundaryLevel
	chain  qbd.Chain
}

// workspaces keeps workspaces between IF and EF calls.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// newBlocks returns n zero m x m matrices on w's storage, which only grows,
// the first set to the identity.
func (w *workspace) newBlocks(n, m int) []linalg.Matrix {
	size := m * m
	if cap(w.data) < n*size {
		w.data = make([]float64, n*size)
	}
	if cap(w.blocks) < n {
		w.blocks = make([]linalg.Matrix, n)
	}
	data, blocks := w.data[:n*size], w.blocks[:n]
	clear(data)
	for i := range blocks {
		blocks[i] = linalg.Matrix{Rows: m, Cols: m, Data: data[i*size : (i+1)*size]}
	}
	for i := 0; i < m; i++ {
		blocks[0].Set(i, i, 1)
	}
	return blocks
}

// newLevels returns n boundary levels on w's storage, which only grows.
func (w *workspace) newLevels(n int) []qbd.BoundaryLevel {
	if cap(w.levels) < n {
		w.levels = make([]qbd.BoundaryLevel, n)
	}
	return w.levels[:n]
}

// EF computes mean response times under Elastic-First: the inelastic class
// from the chain of efChain, the elastic class as an M/M/1 with service
// rate k*muE.
func EF(p queueing.Model, fit BusyPeriodFit) (Result, error) {
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	chain, err := w.efChain(p, fit)
	if err != nil {
		return Result{}, err
	}
	sol, err := w.solver.Solve(chain)
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

// efChain builds the QBD chain EF solves in w, where it stays valid until
// w's next chain.
//
// Chain structure (Figure 3c): level = number of inelastic jobs; phases
// {0 = no elastic busy period, b1, b2}. Inelastic jobs are served only in
// phase 0 (at rate min(level, k)*muI); an elastic arrival in phase 0 starts
// a busy period of the elastic M/M/1 with service rate k*muE.
func (w *workspace) efChain(p queueing.Model, fit BusyPeriodFit) (*qbd.Chain, error) {
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
	// The identity, then the level-independent blocks, built once and
	// shared by every level (qbd only reads them): the up block and the
	// phase generator less the inelastic arrivals, which each level copies
	// before taking out its departures. Then a local block per level, and a
	// down block per level but level 0.
	blocks := w.newBlocks(2*p.K+4, m)
	up := linalg.ScaleInto(&blocks[1], p.LambdaI, &blocks[0])
	base, next := &blocks[2], 3
	// 0 -> b1: elastic arrival opens a busy period.
	base.Add(0, 1, p.LambdaE)
	base.Add(0, 0, -p.LambdaE)
	// b1 -> 0 and b1 -> b2.
	base.Add(1, 0, cox.g1)
	base.Add(1, 2, cox.g2)
	base.Add(1, 1, -(cox.g1 + cox.g2))
	// b2 -> 0.
	base.Add(2, 0, cox.g3)
	base.Add(2, 2, -cox.g3)
	for ph := 0; ph < m; ph++ {
		base.Add(ph, ph, -p.LambdaI)
	}

	mkLevel := func(downRate float64) qbd.BoundaryLevel {
		local := &blocks[next]
		next++
		copy(local.Data, base.Data)
		var d *linalg.Matrix
		if downRate > 0 {
			d = &blocks[next]
			next++
			d.Set(0, 0, downRate) // inelastic served only in phase 0
			local.Add(0, 0, -downRate)
		}
		return qbd.BoundaryLevel{U: up, Local: local, D: d}
	}

	boundary := w.newLevels(p.K)
	for l := 0; l < p.K; l++ {
		boundary[l] = mkLevel(float64(l) * p.MuI)
	}
	rep := mkLevel(float64(p.K) * p.MuI)
	w.chain = qbd.Chain{
		Phases:   m,
		Boundary: boundary,
		A0:       rep.U,
		A1:       rep.Local,
		A2:       rep.D,
	}
	return &w.chain, nil
}

// IF computes mean response times under Inelastic-First: the elastic class
// from the chain of ifChain, the inelastic class as an M/M/k.
func IF(p queueing.Model, fit BusyPeriodFit) (Result, error) {
	w := workspaces.Get().(*workspace)
	defer workspaces.Put(w)
	chain, err := w.ifChain(p, fit)
	if err != nil {
		return Result{}, err
	}
	sol, err := w.solver.Solve(chain)
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

// ifChain builds the QBD chain IF solves in w, where it stays valid until
// w's next chain.
//
// Chain structure (Figure 7c): level = number of elastic jobs; phases
// {0..k-1 = number of inelastic jobs, b1, b2 = the excess period with >= k
// inelastic jobs}. Elastic jobs are served at rate (k-i)*muE in phase i and
// not at all during the excess period, which is an M/M/1 busy period with
// arrival lambdaI and service rate k*muI.
func (w *workspace) ifChain(p queueing.Model, fit BusyPeriodFit) (*qbd.Chain, error) {
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
	// The identity, then the up, level-0 local, A1 and A2 blocks.
	blocks := w.newBlocks(5, m)
	// Level 0's local block: the phase generator less the elastic arrivals.
	// The repeating level copies it before taking out its departures.
	local0 := &blocks[2]
	for i := 0; i < p.K; i++ {
		// Inelastic arrival.
		if i < p.K-1 {
			local0.Add(i, i+1, p.LambdaI)
		} else {
			local0.Add(i, b1, p.LambdaI)
		}
		local0.Add(i, i, -p.LambdaI)
		// Inelastic departure.
		if i > 0 {
			local0.Add(i, i-1, float64(i)*p.MuI)
			local0.Add(i, i, -float64(i)*p.MuI)
		}
	}
	// Excess-period Coxian: exits return to k-1 inelastic jobs.
	local0.Add(b1, p.K-1, cox.g1)
	local0.Add(b1, b2, cox.g2)
	local0.Add(b1, b1, -(cox.g1 + cox.g2))
	local0.Add(b2, p.K-1, cox.g3)
	local0.Add(b2, b2, -cox.g3)
	for ph := 0; ph < m; ph++ {
		local0.Add(ph, ph, -p.LambdaE)
	}

	elasticRate := func(ph int) float64 {
		if ph >= p.K {
			return 0 // starved during the excess period
		}
		return float64(p.K-ph) * p.MuE
	}

	// Boundary level 0 (no elastic jobs, no down transitions) and the
	// repeating levels >= 1 share the up block.
	up := linalg.ScaleInto(&blocks[1], p.LambdaE, &blocks[0])
	a1, a2 := &blocks[3], &blocks[4]
	copy(a1.Data, local0.Data)
	for ph := 0; ph < m; ph++ {
		if r := elasticRate(ph); r > 0 {
			a2.Set(ph, ph, r)
			a1.Add(ph, ph, -r)
		}
	}
	boundary := w.newLevels(1)
	boundary[0] = qbd.BoundaryLevel{U: up, Local: local0}
	w.chain = qbd.Chain{
		Phases:   m,
		Boundary: boundary,
		A0:       up,
		A1:       a1,
		A2:       a2,
	}
	return &w.chain, nil
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
