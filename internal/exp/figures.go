package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/ctmc"
	"repro/internal/dist"
	"repro/internal/mrt"
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/srpt"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// This file holds the paper's figure and table drivers, ported from their
// original serial loops onto the dispatch backends: each grid point is one
// serializable task submitted to opt's Backend (the in-process goroutine
// pool by default, or a networked fabric dispatcher), so a
// figure-scale sweep scales with the hardware while producing exactly the
// same points in the same order. Their tasks belong to no Sweep cell, so
// Options.Cache holds no cells for them; when it is also an OutcomeCache
// (a FileCache) it memoizes the individual grid points, keyed by
// exp.TaskKey, so a re-run of a figure recomputes only what changed. The
// single-configuration experiments (Simulate, Theorem6, SRPTExperiment)
// sit beside them.

// DefaultMuGrid reproduces the paper's 0.25..3.5 axes.
func DefaultMuGrid() []float64 {
	grid := make([]float64, 14)
	for i := range grid {
		grid[i] = 0.25 * float64(i+1)
	}
	return grid
}

// HeatmapPoint is one cell of the Figure 4 heat maps: the relative
// performance of IF and EF at a (muI, muE) grid point with rho held fixed.
type HeatmapPoint struct {
	MuI, MuE float64
	TIF, TEF float64
	// IFWins is true when IF's mean response time is at most EF's.
	IFWins bool
}

// analyzePoints fans the exact-analysis points out on opt's backend and
// returns the per-point results in order — the shared engine of the Figure
// 4/5/6 drivers.
func analyzePoints(ctx context.Context, opt Options, pts []AnalyzePoint) ([]AnalyzeOut, error) {
	tasks := make([]Task, len(pts))
	for i := range pts {
		tasks[i] = Task{Analyze: &pts[i]}
	}
	outs, err := submitAll(ctx, opt, Env{}, tasks)
	if err != nil {
		return nil, err
	}
	res := make([]AnalyzeOut, len(outs))
	for i, out := range outs {
		res[i] = *out.Analyze
	}
	return res, nil
}

// Figure4 computes one heat map: for each (muI, muE) pair the arrival rates
// are rescaled to hold rho constant with lambdaI = lambdaE (the paper's
// protocol), then both policies are analyzed. Points come back in the serial
// driver's order (muI outer, muE inner) regardless of worker count or
// backend.
func Figure4(ctx context.Context, k int, rho float64, grid []float64, opt Options) ([]HeatmapPoint, error) {
	n := len(grid)
	pts := make([]AnalyzePoint, n*n)
	for i := range pts {
		pts[i] = AnalyzePoint{K: k, Rho: rho, MuI: grid[i/n], MuE: grid[i%n]}
	}
	outs, err := analyzePoints(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	points := make([]HeatmapPoint, len(outs))
	for i, out := range outs {
		points[i] = HeatmapPoint{
			MuI: pts[i].MuI, MuE: pts[i].MuE,
			TIF: out.TIF, TEF: out.TEF,
			IFWins: out.TIF <= out.TEF,
		}
	}
	return points, nil
}

// CurvePoint is one x-position of the Figure 5 response-time curves.
type CurvePoint struct {
	MuI      float64
	TIF, TEF float64
}

// Figure5 computes E[T] under IF and EF as a function of muI with muE = 1,
// rho fixed, lambdaI = lambdaE, k servers.
func Figure5(ctx context.Context, k int, rho float64, muIs []float64, opt Options) ([]CurvePoint, error) {
	pts := make([]AnalyzePoint, len(muIs))
	for i, muI := range muIs {
		pts[i] = AnalyzePoint{K: k, Rho: rho, MuI: muI, MuE: 1.0}
	}
	outs, err := analyzePoints(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	points := make([]CurvePoint, len(outs))
	for i, out := range outs {
		points[i] = CurvePoint{MuI: muIs[i], TIF: out.TIF, TEF: out.TEF}
	}
	return points, nil
}

// KPoint is one x-position of the Figure 6 scaling curves.
type KPoint struct {
	K        int
	TIF, TEF float64
}

// Figure6 computes E[T] under IF and EF as the number of servers grows with
// rho held constant; the paper uses rho = 0.9 and the two extreme muI values
// of Figure 5c.
func Figure6(ctx context.Context, rho, muI, muE float64, ks []int, opt Options) ([]KPoint, error) {
	pts := make([]AnalyzePoint, len(ks))
	for i, k := range ks {
		pts[i] = AnalyzePoint{K: k, Rho: rho, MuI: muI, MuE: muE}
	}
	outs, err := analyzePoints(ctx, opt, pts)
	if err != nil {
		return nil, err
	}
	points := make([]KPoint, len(outs))
	for i, out := range outs {
		points[i] = KPoint{K: ks[i], TIF: out.TIF, TEF: out.TEF}
	}
	return points, nil
}

// ValidationRow is one line of the analysis-vs-simulation table backing the
// paper's "all numbers agree within 1%" claim.
type ValidationRow struct {
	K              int
	Rho, MuI, MuE  float64
	Policy         string
	Analysis       float64
	Simulation     float64
	RelErr         float64
	SimCompletions int64
}

// ValidateAnalysis compares the matrix-analytic E[T] against long
// simulations for both policies at each configuration. Each (muI, policy)
// pair is one backend task; rows keep the serial driver's order.
func ValidateAnalysis(ctx context.Context, k int, rho float64, muIs []float64, opt SimOptions, o Options) ([]ValidationRow, error) {
	pols := []string{"IF", "EF"}
	tasks := make([]Task, len(muIs)*len(pols))
	for i := range tasks {
		tasks[i] = Task{Validate: &ValidatePoint{
			K: k, Rho: rho, MuI: muIs[i/len(pols)], MuE: 1.0,
			Policy: pols[i%len(pols)], Opt: opt,
		}}
	}
	outs, err := submitAll(ctx, o, Env{}, tasks)
	if err != nil {
		return nil, err
	}
	rows := make([]ValidationRow, len(outs))
	for i, out := range outs {
		rows[i] = *out.Validate
	}
	return rows, nil
}

// BusyPeriodAblation compares the paper's 3-moment Coxian busy-period fit
// against the mean-only exponential replacement, both measured against the
// exact truncated chain, at each muI of the grid (muE = 1): one backend task
// per point, rows IF then EF per point.
func BusyPeriodAblation(ctx context.Context, k int, rho float64, muIs []float64, o Options) ([]AblationRow, error) {
	tasks := make([]Task, len(muIs))
	for i, muI := range muIs {
		tasks[i] = Task{Ablation: &AblationPoint{K: k, Rho: rho, MuI: muI}}
	}
	outs, err := submitAll(ctx, o, Env{}, tasks)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, out := range outs {
		rows = append(rows, out.Ablation...)
	}
	return rows, nil
}

// SimOptions controls a simulation run.
type SimOptions struct {
	Seed       uint64
	WarmupJobs int64
	MaxJobs    int64
}

// Simulate runs the event-driven simulator on model m under policy p.
func Simulate(m queueing.Model, p sim.Policy, opt SimOptions) sim.Result {
	return sim.Run(sim.RunConfig{
		K:          m.K,
		Policy:     p,
		Source:     workload.Model{Model: m}.Source(opt.Seed),
		WarmupJobs: opt.WarmupJobs,
		MaxJobs:    opt.MaxJobs,
	})
}

// Theorem6Result carries the exact counterexample values.
type Theorem6Result struct {
	MuI, MuE           float64
	IFTotal, EFTotal   float64
	IFExpect, EFExpect float64
}

// Theorem6 computes the counterexample of Section 4.3 by first-step
// analysis of the simulator's IF and EF policies: k = 2, muE = 2 muI, two
// inelastic and one elastic job at time 0, no arrivals. The exact totals
// are 35/12/muI (IF) and 33/12/muI (EF).
func Theorem6(muI float64) (Theorem6Result, error) {
	m := queueing.Model{K: 2, MuI: muI, MuE: 2 * muI}
	var totals [2]float64 // IF, EF
	for x, name := range []string{"IF", "EF"} {
		rule, err := policy.CountRule(name, m.MuI, m.MuE)
		if err == nil {
			totals[x], err = ctmc.BatchTotalResponse(m, rule, 2, 1)
		}
		if err != nil {
			return Theorem6Result{}, err
		}
	}
	return Theorem6Result{
		MuI: muI, MuE: 2 * muI,
		IFTotal: totals[0], EFTotal: totals[1],
		IFExpect: 35.0 / 12 / muI, EFExpect: 33.0 / 12 / muI,
	}, nil
}

// SRPTRow is one instance family of the Appendix A experiment.
type SRPTRow struct {
	N, K       int
	SizeDist   string
	WorstRatio float64
	MeanRatio  float64
	Trials     int
}

// SRPTExperiment samples random batch instances and reports the SRPT-k
// total response time relative to the LP lower bound; Theorem 9 guarantees
// the ratio to optimal is at most 4.
func SRPTExperiment(trials int, seed uint64) []SRPTRow {
	type family struct {
		n, k int
		name string
		mk   func() dist.Distribution
	}
	families := []family{
		{8, 4, "exp(1)", func() dist.Distribution { return dist.NewExponential(1) }},
		{16, 4, "exp(1)", func() dist.Distribution { return dist.NewExponential(1) }},
		{16, 8, "pareto(1.5)", func() dist.Distribution { return dist.NewBoundedPareto(1.5, 0.1, 100) }},
		{32, 8, "uniform(0.5,1.5)", func() dist.Distribution { return dist.NewUniform(0.5, 1.5) }},
		{32, 16, "pareto(1.5)", func() dist.Distribution { return dist.NewBoundedPareto(1.5, 0.1, 100) }},
	}
	r := xrand.New(seed)
	var rows []SRPTRow
	for _, f := range families {
		worst, sum := 0.0, 0.0
		for trial := 0; trial < trials; trial++ {
			batch := workload.RandomBatch(r, f.n, f.mk(), f.k)
			ratio := srpt.ApproximationRatio(batch, f.k)
			sum += ratio
			if ratio > worst {
				worst = ratio
			}
		}
		rows = append(rows, SRPTRow{
			N: f.n, K: f.k, SizeDist: f.name,
			WorstRatio: worst, MeanRatio: sum / float64(trials), Trials: trials,
		})
	}
	return rows
}

// AblationRow quantifies the busy-period fit design choice for one
// configuration.
type AblationRow struct {
	Rho, MuI       float64
	Policy         string
	Exact          float64
	Coxian3, Exp1  float64
	ErrCox, ErrExp float64
}

// ablationRows compares the paper's 3-moment Coxian busy-period fit against
// the mean-only exponential replacement at one muI (muE = 1), IF then EF,
// both measured against the exact truncated chain of the same policy.
func ablationRows(k int, rho, muI float64) ([]AblationRow, error) {
	m := queueing.ForLoad(k, rho, muI, 1.0)
	var rows []AblationRow
	for _, pol := range []string{"IF", "EF"} {
		analyze := mrt.IF
		if pol == "EF" {
			analyze = mrt.EF
		}
		rule, err := policy.CountRule(pol, m.MuI, m.MuE)
		if err != nil {
			return nil, err
		}
		exact, err := ctmc.AutoSolvePolicy(m, rule, 1e-10)
		if err != nil {
			return nil, err
		}
		cox, err := analyze(m, mrt.Coxian3Moment)
		if err != nil {
			return nil, err
		}
		expo, err := analyze(m, mrt.Exponential1Moment)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Rho: rho, MuI: muI, Policy: pol,
			Exact: exact.MeanT, Coxian3: cox.T, Exp1: expo.T,
			ErrCox: (cox.T - exact.MeanT) / exact.MeanT,
			ErrExp: (expo.T - exact.MeanT) / exact.MeanT,
		})
	}
	return rows, nil
}

// DominanceConfig describes the Theorem 3 coupled sample-path experiment:
// policies A and B driven in lockstep over identical arrival traces, work
// compared at every event epoch, repeated over independent traces.
type DominanceConfig struct {
	K                int
	Rho, MuI, MuE    float64
	PolicyA, PolicyB string
	// Arrivals per trace.
	Arrivals int
	// Seeds is the number of independent traces (seeds 1..Seeds).
	Seeds int
	// Tol absorbs floating-point noise in the work comparison (default 1e-7).
	Tol float64
}

// DominanceRun is the outcome of one coupled trace.
type DominanceRun struct {
	Seed       uint64
	Checked    int
	Violations int
	// First is the first violation's description, empty when A dominated.
	First string
	// RatioAB is mean response under A divided by mean response under B on
	// the coupled trace.
	RatioAB float64
}

// Dominance runs the coupled experiment, one trace per backend task (seeds
// 1..Seeds, in order). An o.Cache that is also an OutcomeCache memoizes
// per-trace outcomes, so repeating the experiment (or extending Seeds)
// recomputes only the missing traces.
func Dominance(ctx context.Context, cfg DominanceConfig, o Options) ([]DominanceRun, error) {
	if cfg.K < 1 || cfg.Arrivals < 1 || cfg.Seeds < 1 {
		return nil, fmt.Errorf("exp: dominance needs k, arrivals and seeds >= 1 (got k=%d n=%d seeds=%d)",
			cfg.K, cfg.Arrivals, cfg.Seeds)
	}
	if !(cfg.Rho > 0 && cfg.Rho < 1) || cfg.MuI <= 0 || cfg.MuE <= 0 {
		return nil, fmt.Errorf("exp: dominance needs rho in (0,1) and positive service rates")
	}
	// Validate both policies against the classes the traces run on, as a
	// sweep cell's are. Per-trace instances are built inside each task (see
	// runDominanceTrace): stateful policies hold buffers no two may share.
	classes := workload.ModelForLoad(cfg.K, cfg.Rho, cfg.MuI, cfg.MuE).Classes()
	for _, name := range []string{cfg.PolicyA, cfg.PolicyB} {
		p, err := policy.ByName(name, cfg.MuI, cfg.MuE)
		if err != nil {
			return nil, err
		}
		if err := policy.Validate(p, classes); err != nil {
			return nil, fmt.Errorf("exp: dominance: %w", err)
		}
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-7
	}
	tasks := make([]Task, cfg.Seeds)
	for i := range tasks {
		tasks[i] = Task{Dominance: &DominanceTrace{
			K: cfg.K, Rho: cfg.Rho, MuI: cfg.MuI, MuE: cfg.MuE,
			PolicyA: cfg.PolicyA, PolicyB: cfg.PolicyB,
			Arrivals: cfg.Arrivals, Tol: tol, Seed: uint64(i + 1),
		}}
	}
	outs, err := submitAll(ctx, o, Env{}, tasks)
	if err != nil {
		return nil, err
	}
	runs := make([]DominanceRun, len(outs))
	for i, out := range outs {
		runs[i] = *out.Dominance
	}
	return runs, nil
}

// RenderHeatmapASCII draws the Figure 4 heat map in the terminal: rows are
// muE (descending, like the paper's y-axis), columns are muI; 'o' marks
// cells where IF dominates and '+' where EF dominates, matching the paper's
// red-circle/blue-plus convention.
func RenderHeatmapASCII(points []HeatmapPoint) string {
	muIs := uniqueSorted(points, func(p HeatmapPoint) float64 { return p.MuI })
	muEs := uniqueSorted(points, func(p HeatmapPoint) float64 { return p.MuE })
	cell := make(map[[2]float64]bool, len(points))
	for _, p := range points {
		cell[[2]float64{p.MuI, p.MuE}] = p.IFWins
	}
	var b strings.Builder
	for r := len(muEs) - 1; r >= 0; r-- {
		fmt.Fprintf(&b, "muE=%5.2f |", muEs[r])
		for _, muI := range muIs {
			if cell[[2]float64{muI, muEs[r]}] {
				b.WriteString(" o")
			} else {
				b.WriteString(" +")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("           ")
	for range muIs {
		b.WriteString("--")
	}
	b.WriteString("\n            muI: ")
	for _, muI := range muIs {
		fmt.Fprintf(&b, "%.2g ", muI)
	}
	b.WriteString("\n( o = IF superior, + = EF superior )\n")
	return b.String()
}

// WriteHeatmapCSV emits the Figure 4 data as CSV.
func WriteHeatmapCSV(w io.Writer, points []HeatmapPoint) error {
	if _, err := fmt.Fprintln(w, "muI,muE,ET_IF,ET_EF,winner"); err != nil {
		return err
	}
	for _, p := range points {
		winner := "EF"
		if p.IFWins {
			winner = "IF"
		}
		if _, err := fmt.Fprintf(w, "%g,%g,%.6f,%.6f,%s\n", p.MuI, p.MuE, p.TIF, p.TEF, winner); err != nil {
			return err
		}
	}
	return nil
}

// WriteCurveCSV emits the Figure 5 data as CSV.
func WriteCurveCSV(w io.Writer, points []CurvePoint) error {
	if _, err := fmt.Fprintln(w, "muI,ET_IF,ET_EF"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%g,%.6f,%.6f\n", p.MuI, p.TIF, p.TEF); err != nil {
			return err
		}
	}
	return nil
}

// WriteKCurveCSV emits the Figure 6 data as CSV.
func WriteKCurveCSV(w io.Writer, points []KPoint) error {
	if _, err := fmt.Fprintln(w, "k,ET_IF,ET_EF"); err != nil {
		return err
	}
	for _, p := range points {
		if _, err := fmt.Fprintf(w, "%d,%.6f,%.6f\n", p.K, p.TIF, p.TEF); err != nil {
			return err
		}
	}
	return nil
}

// WriteValidationTable renders the analysis-vs-simulation comparison.
func WriteValidationTable(w io.Writer, rows []ValidationRow) error {
	if _, err := fmt.Fprintln(w, "k,rho,muI,muE,policy,ET_analysis,ET_simulation,rel_err"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%s,%.6f,%.6f,%+.4f%%\n",
			r.K, r.Rho, r.MuI, r.MuE, r.Policy, r.Analysis, r.Simulation, 100*r.RelErr); err != nil {
			return err
		}
	}
	return nil
}

func uniqueSorted(points []HeatmapPoint, get func(HeatmapPoint) float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, p := range points {
		v := get(p)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	return out
}
