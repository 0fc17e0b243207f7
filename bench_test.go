// Package repro's root benchmark harness regenerates every table and figure
// of the paper's evaluation (the "Paper ↔ package correspondence" table in
// docs/ARCHITECTURE.md maps each one to the code behind it):
//
//	BenchmarkFigure4*              heat maps of IF vs EF (Fig. 4a/4b/4c)
//	BenchmarkFigure5*              E[T] vs muI curves (Fig. 5a/5b/5c)
//	BenchmarkFigure6*              E[T] vs k curves (Fig. 6a/6b)
//	BenchmarkTheorem6              the 35/12 vs 33/12 counterexample
//	BenchmarkAnalysisVsSimulation  the "within 1%" validation of Section 5
//	BenchmarkSamplePathDominance   the Theorem 3 coupled-work experiment
//	BenchmarkOptimalityScan        Theorem 5 scan over the threshold family
//	BenchmarkSRPTApproximation     Appendix A batch scheduling ratios
//	BenchmarkIdlingInterchange     Appendix B idling-policy comparison
//	BenchmarkBusyPeriodAblation    3-moment Coxian vs 1-moment exponential
//	BenchmarkOptimalPolicyMDP      open-regime optimal policy vs IF/EF
//	BenchmarkMultiClass            3-class priority orderings (Section 6)
//	BenchmarkTailLatency           inelastic p99 under IF vs EF
//	BenchmarkSimulatorThroughput   engine microbenchmark (events/sec)
//
// Key reproduced values are exported with b.ReportMetric so that
// `go test -bench=. -benchmem` output doubles as the results table.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ctmc"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/mdp"
	"repro/internal/policy"
	"repro/internal/queueing"
	"repro/internal/sim"
	"repro/internal/srpt"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func benchFigure4(b *testing.B, rho float64) {
	grid := exp.DefaultMuGrid()
	var ifWins, efWins int
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure4(context.Background(), 4, rho, grid, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ifWins, efWins = 0, 0
		for _, p := range points {
			if p.IFWins {
				ifWins++
			} else {
				efWins++
			}
		}
	}
	b.ReportMetric(float64(ifWins), "IF-cells")
	b.ReportMetric(float64(efWins), "EF-cells")
}

func BenchmarkFigure4aLowLoad(b *testing.B)  { benchFigure4(b, 0.5) }
func BenchmarkFigure4bMedLoad(b *testing.B)  { benchFigure4(b, 0.7) }
func BenchmarkFigure4cHighLoad(b *testing.B) { benchFigure4(b, 0.9) }

func benchFigure5(b *testing.B, rho float64) {
	muIs := exp.DefaultMuGrid()
	var left, right exp.CurvePoint
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure5(context.Background(), 4, rho, muIs, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		left, right = points[0], points[len(points)-1]
	}
	// The extreme x-positions of each curve, as read off the paper's plot.
	b.ReportMetric(left.TIF, "ET-IF@muI=0.25")
	b.ReportMetric(left.TEF, "ET-EF@muI=0.25")
	b.ReportMetric(right.TIF, "ET-IF@muI=3.5")
	b.ReportMetric(right.TEF, "ET-EF@muI=3.5")
}

func BenchmarkFigure5aLowLoad(b *testing.B)  { benchFigure5(b, 0.5) }
func BenchmarkFigure5bMedLoad(b *testing.B)  { benchFigure5(b, 0.7) }
func BenchmarkFigure5cHighLoad(b *testing.B) { benchFigure5(b, 0.9) }

func benchFigure6(b *testing.B, muI float64) {
	ks := []int{2, 4, 8, 16}
	var first, last exp.KPoint
	for i := 0; i < b.N; i++ {
		points, err := exp.Figure6(context.Background(), 0.9, muI, 1.0, ks, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		first, last = points[0], points[len(points)-1]
	}
	b.ReportMetric(first.TIF, "ET-IF@k=2")
	b.ReportMetric(first.TEF, "ET-EF@k=2")
	b.ReportMetric(last.TIF, "ET-IF@k=16")
	b.ReportMetric(last.TEF, "ET-EF@k=16")
}

func BenchmarkFigure6aSmallMuI(b *testing.B) { benchFigure6(b, 0.25) }
func BenchmarkFigure6bLargeMuI(b *testing.B) { benchFigure6(b, 3.25) }

func BenchmarkTheorem6(b *testing.B) {
	var res exp.Theorem6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Theorem6(1.0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IFTotal, "IF-total(35/12)")
	b.ReportMetric(res.EFTotal, "EF-total(33/12)")
}

func BenchmarkAnalysisVsSimulation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		// 1M measured jobs per point pushes simulation noise well below
		// the 1% the busy-period approximation is being tested against.
		rows, err := exp.ValidateAnalysis(context.Background(), 4, 0.7, []float64{0.5, 2.0},
			exp.SimOptions{Seed: 7, WarmupJobs: 50_000, MaxJobs: 1_000_000}, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if e := abs(r.RelErr); e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(100*worst, "worst-rel-err-%")
}

func BenchmarkSamplePathDominance(b *testing.B) {
	model := workload.ModelForLoad(4, 0.8, 1.5, 1.0)
	trace := model.Trace(3, 20_000)
	rivals := []sim.Policy{policy.ElasticFirst{}, &policy.FCFS{}, policy.Threshold{Cap: 2}}
	var checked, violations int
	for i := 0; i < b.N; i++ {
		checked, violations = 0, 0
		for _, rival := range rivals {
			rep := sim.CompareWork(model.K, trace, policy.InelasticFirst{}, rival, 1e-7)
			checked += rep.Checked
			violations += len(rep.Violations)
		}
	}
	b.ReportMetric(float64(checked), "checks")
	b.ReportMetric(float64(violations), "violations")
}

func BenchmarkOptimalityScan(b *testing.B) {
	// Theorem 5 on exact chains: IF vs the whole threshold family at
	// muI = 1.5 >= muE = 1.
	m := queueing.ForLoad(4, 0.7, 1.5, 1.0)
	solve := func(name string) ctmc.Perf {
		rule, err := policy.CountRule(name, m.MuI, m.MuE)
		if err != nil {
			b.Fatal(err)
		}
		perf, err := ctmc.AutoSolvePolicy(m, rule, 1e-9)
		if err != nil {
			b.Fatal(err)
		}
		return perf
	}
	var ifT, bestRival float64
	for i := 0; i < b.N; i++ {
		ifT = solve("IF").MeanT
		bestRival = 1e18
		for cap := 0; cap < 4; cap++ {
			if p := solve(fmt.Sprintf("THRESH:%d", cap)); p.MeanT < bestRival {
				bestRival = p.MeanT
			}
		}
	}
	b.ReportMetric(ifT, "ET-IF")
	b.ReportMetric(bestRival, "ET-best-rival")
}

func BenchmarkSRPTApproximation(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		rows := exp.SRPTExperiment(100, 5)
		worst = 0
		for _, r := range rows {
			if r.WorstRatio > worst {
				worst = r.WorstRatio
			}
		}
	}
	b.ReportMetric(worst, "worst-ratio(bound=4)")
}

func BenchmarkIdlingInterchange(b *testing.B) {
	// Appendix B: the idling DeferElastic policy vs its non-idling
	// interchange (IF), at low load where the idling policy is stable.
	model := workload.ModelForLoad(2, 0.5, 1.0, 1.0)
	var ifT, deferT float64
	for i := 0; i < b.N; i++ {
		ifRes := sim.Run(sim.RunConfig{
			K: model.K, Policy: policy.InelasticFirst{}, Source: model.Source(3),
			WarmupJobs: 10_000, MaxJobs: 150_000,
		})
		deferRes := sim.Run(sim.RunConfig{
			K: model.K, Policy: policy.DeferElastic{}, Source: model.Source(3),
			WarmupJobs: 10_000, MaxJobs: 150_000,
		})
		ifT, deferT = ifRes.MeanT, deferRes.MeanT
	}
	b.ReportMetric(ifT, "ET-IF")
	b.ReportMetric(deferT, "ET-idling")
}

func BenchmarkBusyPeriodAblation(b *testing.B) {
	var errCox, errExp float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.BusyPeriodAblation(context.Background(), 4, 0.8, []float64{1.0}, exp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		errCox, errExp = 0, 0
		for _, r := range rows {
			if e := abs(r.ErrCox); e > errCox {
				errCox = e
			}
			if e := abs(r.ErrExp); e > errExp {
				errExp = e
			}
		}
	}
	b.ReportMetric(100*errCox, "coxian3-err-%")
	b.ReportMetric(100*errExp, "exp1-err-%")
}

func BenchmarkTailLatency(b *testing.B) {
	// Beyond the paper's mean-response objective: the response-time tail
	// of the small class under each policy (reservoir percentiles). IF
	// keeps the inelastic p99 near its service floor; EF pushes it out by
	// an order of magnitude.
	model := workload.ModelForLoad(4, 0.8, 2.0, 1.0)
	var ifP99, efP99 float64
	for i := 0; i < b.N; i++ {
		recIF := sim.NewResponseRecorder(50_000, 3)
		sim.RunWithRecorder(sim.RunConfig{
			K: model.K, Policy: policy.InelasticFirst{}, Source: model.Source(3),
			WarmupJobs: 20_000, MaxJobs: 200_000,
		}, recIF)
		recEF := sim.NewResponseRecorder(50_000, 3)
		sim.RunWithRecorder(sim.RunConfig{
			K: model.K, Policy: policy.ElasticFirst{}, Source: model.Source(3),
			WarmupJobs: 20_000, MaxJobs: 200_000,
		}, recEF)
		ifP99 = recIF.Quantile(sim.Inelastic, 0.99)
		efP99 = recEF.Quantile(sim.Inelastic, 0.99)
	}
	b.ReportMetric(ifP99, "p99-inelastic-IF")
	b.ReportMetric(efP99, "p99-inelastic-EF")
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	model := workload.ModelForLoad(4, 0.8, 1.0, 1.0)
	src := model.Source(1)
	sys := sim.NewSystem(model.K, policy.InelasticFirst{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := src.Next()
		sys.AdvanceTo(a.Time)
		sys.Arrive(a)
	}
	b.ReportMetric(float64(sys.Metrics().TotalCompletions())/b.Elapsed().Seconds(), "completions/sec")
}

func BenchmarkSRPTKSchedule(b *testing.B) {
	batch := workload.RandomBatch(xrand.New(9), 256, dist.NewExponential(1), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srpt.SRPTK(batch, 8)
	}
}

func BenchmarkOptimalPolicyMDP(b *testing.B) {
	// The open-regime experiment: the numerically optimal policy vs the
	// two headline policies at muI < muE (extends Theorem 6's message).
	m := queueing.ForLoad(4, 0.8, 0.4, 1.0)
	solve := func(name string) ctmc.Perf {
		rule, err := policy.CountRule(name, m.MuI, m.MuE)
		if err != nil {
			b.Fatal(err)
		}
		perf, err := ctmc.SolvePolicy(m, rule, 80, 80)
		if err != nil {
			b.Fatal(err)
		}
		return perf
	}
	var optT, ifT, efT float64
	for i := 0; i < b.N; i++ {
		opt, err := mdp.Solve(mdp.Config{Model: m, CapI: 80, CapE: 80, Tol: 1e-10})
		if err != nil {
			b.Fatal(err)
		}
		ifPerf, efPerf := solve("IF"), solve("EF")
		optT, ifT, efT = opt.MeanT, ifPerf.MeanT, efPerf.MeanT
	}
	b.ReportMetric(optT, "ET-optimal")
	b.ReportMetric(ifT, "ET-IF")
	b.ReportMetric(efT, "ET-EF")
}

func BenchmarkMultiClass(b *testing.B) {
	// Three classes with caps {1, 4, inf} on the unified engine:
	// least-flexible-first vs the reverse ordering (Section 6 direction).
	mix := workload.Mix{Name: "bench3", Classes: []sim.ClassSpec{
		{Name: "rigid", Speedup: sim.CappedSpeedup(1), Lambda: 4.0, Size: dist.NewExponential(4)},
		{Name: "partial", Speedup: sim.CappedSpeedup(4), Lambda: 1.6, Size: dist.NewExponential(1)},
		{Name: "elastic", Speedup: sim.LinearSpeedup(), Lambda: 0.6, Size: dist.NewExponential(0.25)},
	}}
	runOrder := func(order []int) float64 {
		res := sim.Run(sim.RunConfig{
			K: 8, Policy: policy.ClassPriority{Order: order},
			Source: mix.Source(9), Classes: mix.Classes,
			WarmupJobs: 10_000, MaxJobs: 120_000,
		})
		return res.MeanT
	}
	var lff, rev float64
	for i := 0; i < b.N; i++ {
		lff = runOrder([]int{0, 1, 2})
		rev = runOrder([]int{2, 1, 0})
	}
	b.ReportMetric(lff, "ET-least-flexible-first")
	b.ReportMetric(rev, "ET-most-flexible-first")
}

func BenchmarkPartialElasticity(b *testing.B) {
	// Section 6 partial elasticity end to end: the four-class Amdahl mix
	// under LFF vs EQUI on the unified engine.
	mix := workload.PartialElasticity(8, 0.7)
	var lff, equi float64
	for i := 0; i < b.N; i++ {
		lffRes := sim.Run(sim.RunConfig{
			K: 8, Policy: &policy.LeastFlexibleFirst{}, Source: mix.Source(9),
			Classes: mix.Classes, WarmupJobs: 10_000, MaxJobs: 120_000,
		})
		equiRes := sim.Run(sim.RunConfig{
			K: 8, Policy: policy.Equi{}, Source: mix.Source(9),
			Classes: mix.Classes, WarmupJobs: 10_000, MaxJobs: 120_000,
		})
		lff, equi = lffRes.MeanT, equiRes.MeanT
	}
	b.ReportMetric(lff, "ET-LFF")
	b.ReportMetric(equi, "ET-EQUI")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
