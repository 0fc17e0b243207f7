package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
)

// This file holds the paper's figure and table drivers, ported from their
// original serial loops onto the dispatch backends: each grid point is one
// serializable task submitted to opt's Backend (the in-process goroutine
// pool by default, or a networked fabric dispatcher), so a
// figure-scale sweep scales with the hardware while producing exactly the
// same points in the same order. Options.Cache (cell granularity) does not
// apply to these drivers — their tasks belong to no Sweep cell — but
// Options.TaskCache memoizes the individual grid points, keyed by
// exp.TaskKey, so a re-run of a figure recomputes only what changed.

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
func ValidateAnalysis(ctx context.Context, k int, rho float64, muIs []float64, opt core.SimOptions, o Options) ([]ValidationRow, error) {
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

// BusyPeriodAblation fans the busy-period fit ablation (core.BusyPeriodAblation)
// out over the muI grid, one backend task per point.
func BusyPeriodAblation(ctx context.Context, k int, rho float64, muIs []float64, o Options) ([]core.AblationRow, error) {
	tasks := make([]Task, len(muIs))
	for i, muI := range muIs {
		tasks[i] = Task{Ablation: &AblationPoint{K: k, Rho: rho, MuI: muI}}
	}
	outs, err := submitAll(ctx, o, Env{}, tasks)
	if err != nil {
		return nil, err
	}
	var rows []core.AblationRow
	for _, out := range outs {
		rows = append(rows, out.Ablation...)
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
// 1..Seeds, in order). o.TaskCache memoizes per-trace outcomes, so
// repeating the experiment (or extending Seeds) recomputes only the missing
// traces.
func Dominance(ctx context.Context, cfg DominanceConfig, o Options) ([]DominanceRun, error) {
	if cfg.K < 1 || cfg.Arrivals < 1 || cfg.Seeds < 1 {
		return nil, fmt.Errorf("exp: dominance needs k, arrivals and seeds >= 1 (got k=%d n=%d seeds=%d)",
			cfg.K, cfg.Arrivals, cfg.Seeds)
	}
	if !(cfg.Rho > 0 && cfg.Rho < 1) || cfg.MuI <= 0 || cfg.MuE <= 0 {
		return nil, fmt.Errorf("exp: dominance needs rho in (0,1) and positive service rates")
	}
	// Validate the policy names up front; per-trace instances are
	// constructed inside each task (see runDominanceTrace) because stateful
	// policies maintain reusable buffers that must not be shared across
	// workers.
	s := core.ForLoad(cfg.K, cfg.Rho, cfg.MuI, cfg.MuE)
	if _, err := s.PolicyByName(cfg.PolicyA); err != nil {
		return nil, err
	}
	if _, err := s.PolicyByName(cfg.PolicyB); err != nil {
		return nil, err
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
