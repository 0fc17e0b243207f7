package exp

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/queueing"
)

// TestFigure4Theorem5Region: in the muI >= muE half of every heat map, IF
// must win — that is the content of Theorem 5 and the visually striking
// feature of Figure 4.
func TestFigure4Theorem5Region(t *testing.T) {
	grid := []float64{0.5, 1.0, 1.5, 2.5, 3.5}
	for _, rho := range []float64{0.5, 0.7, 0.9} {
		points, err := Figure4(context.Background(), 4, rho, grid, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			if p.MuI >= p.MuE && !p.IFWins {
				t.Fatalf("rho=%v: EF wins at muI=%v >= muE=%v (IF=%v EF=%v), contradicting Theorem 5",
					rho, p.MuI, p.MuE, p.TIF, p.TEF)
			}
		}
	}
}

// TestFigure4EFRegionGrowsWithLoad reproduces the qualitative finding of
// Figure 4: the EF-superior region grows as rho increases.
func TestFigure4EFRegionGrowsWithLoad(t *testing.T) {
	grid := []float64{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0}
	count := func(rho float64) int {
		points, err := Figure4(context.Background(), 4, rho, grid, Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, p := range points {
			if !p.IFWins {
				n++
			}
		}
		return n
	}
	low, med, high := count(0.5), count(0.7), count(0.9)
	if !(low <= med && med <= high) {
		t.Fatalf("EF region sizes not increasing with load: %d, %d, %d", low, med, high)
	}
	if high == 0 {
		t.Fatal("no EF-superior cells at rho=0.9; Figure 4c should show some")
	}
}

// TestFigure4ParallelMatchesSerial: the ported driver must produce the
// serial loop's points in the serial loop's order, for any worker count.
func TestFigure4ParallelMatchesSerial(t *testing.T) {
	grid := []float64{0.5, 1.0, 2.0}
	serial, err := Figure4(context.Background(), 4, 0.7, grid, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure4(context.Background(), 4, 0.7, grid, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
	// Row-major muI-outer order, as the serial driver produced.
	if serial[0].MuI != 0.5 || serial[0].MuE != 0.5 || serial[1].MuE != 1.0 {
		t.Fatalf("unexpected point order: %+v", serial[:2])
	}
}

// TestFigure5Shape checks the qualitative features of Figure 5: both curves
// decrease in muI (faster inelastic service shrinks response times), IF is
// optimal right of muI = 1, and the gap is large at the left edge under
// high load.
func TestFigure5Shape(t *testing.T) {
	muIs := []float64{0.25, 0.5, 1.0, 2.0, 3.5}
	points, err := Figure5(context.Background(), 4, 0.9, muIs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].TIF >= points[i-1].TIF {
			t.Fatalf("IF curve not decreasing at muI=%v", points[i].MuI)
		}
	}
	for _, p := range points {
		if p.MuI >= 1.0 && p.TIF > p.TEF*(1+1e-9) {
			t.Fatalf("IF worse than EF at muI=%v >= muE=1", p.MuI)
		}
	}
	// Left edge at high load: EF beats IF (the crossover of Figure 5c).
	if points[0].TEF >= points[0].TIF {
		t.Fatalf("expected EF < IF at muI=0.25 under rho=0.9: EF=%v IF=%v",
			points[0].TEF, points[0].TIF)
	}
}

// TestFigure6Shape: with rho fixed, E[T] decreases in k for the optimal
// policy, and the IF/EF ranking at each endpoint matches Figure 6's panels.
func TestFigure6Shape(t *testing.T) {
	ks := []int{2, 4, 8, 16}
	// Panel (a): muI = 0.25 (EF better everywhere).
	a, err := Figure6(context.Background(), 0.9, 0.25, 1.0, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range a {
		if p.TEF >= p.TIF {
			t.Fatalf("panel a at k=%d: EF (%v) should beat IF (%v)", p.K, p.TEF, p.TIF)
		}
	}
	// Panel (b): muI = 3.25 (IF better everywhere).
	b, err := Figure6(context.Background(), 0.9, 3.25, 1.0, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range b {
		if p.TIF > p.TEF {
			t.Fatalf("panel b at k=%d: IF (%v) should beat EF (%v)", p.K, p.TIF, p.TEF)
		}
	}
	// "Even when k = 16, the difference between IF and EF remains large."
	last := b[len(b)-1]
	if last.TEF/last.TIF < 1.2 {
		t.Fatalf("k=16 gap too small: IF=%v EF=%v", last.TIF, last.TEF)
	}
}

func TestRenderHeatmapASCII(t *testing.T) {
	points := []HeatmapPoint{
		{MuI: 1, MuE: 1, IFWins: true},
		{MuI: 2, MuE: 1, IFWins: true},
		{MuI: 1, MuE: 2, IFWins: false},
		{MuI: 2, MuE: 2, IFWins: true},
	}
	out := RenderHeatmapASCII(points)
	if !strings.Contains(out, "o") || !strings.Contains(out, "+") {
		t.Fatalf("heatmap missing markers:\n%s", out)
	}
	if !strings.Contains(out, "muE= 2.00 | + o") {
		t.Fatalf("unexpected layout:\n%s", out)
	}
}

func TestCSVWriters(t *testing.T) {
	var sb strings.Builder
	err := WriteHeatmapCSV(&sb, []HeatmapPoint{{MuI: 1, MuE: 2, TIF: 3, TEF: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1,2,3.000000,4.000000,EF") {
		t.Fatalf("heatmap csv: %s", sb.String())
	}
	sb.Reset()
	if err := WriteCurveCSV(&sb, []CurvePoint{{MuI: 1, TIF: 2, TEF: 3}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "1,2.000000,3.000000") {
		t.Fatalf("curve csv: %s", sb.String())
	}
	sb.Reset()
	if err := WriteKCurveCSV(&sb, []KPoint{{K: 4, TIF: 2, TEF: 3}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "4,2.000000,3.000000") {
		t.Fatalf("k csv: %s", sb.String())
	}
	sb.Reset()
	if err := WriteValidationTable(&sb, []ValidationRow{{K: 4, Rho: 0.5, MuI: 1, MuE: 1, Policy: "IF", Analysis: 1, Simulation: 1.005, RelErr: 0.005}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "IF") {
		t.Fatalf("validation table: %s", sb.String())
	}
}

// TestValidateAnalysisWithinOnePercent is the repository's version of the
// paper's Section 5 claim: "We compared our analysis with simulation, and
// all numbers agree within 1%."
func TestValidateAnalysisWithinOnePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("long validation run")
	}
	rows, err := ValidateAnalysis(context.Background(), 4, 0.7, []float64{0.5, 1.0, 2.0},
		SimOptions{Seed: 17, WarmupJobs: 30_000, MaxJobs: 600_000}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.RelErr) > 0.015 {
			t.Fatalf("%s at muI=%v: analysis %v vs sim %v (err %.2f%%)",
				r.Policy, r.MuI, r.Analysis, r.Simulation, 100*r.RelErr)
		}
	}
}

// TestDominanceTheorem3 reproduces the coupled sample-path experiment: IF
// work-dominates rivals in class P on every sampled trace.
func TestDominanceTheorem3(t *testing.T) {
	runs, err := Dominance(context.Background(), DominanceConfig{
		K: 4, Rho: 0.8, MuI: 1.5, MuE: 1.0,
		PolicyA: "IF", PolicyB: "EF",
		Arrivals: 4_000, Seeds: 3,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Fatalf("want 3 runs, got %d", len(runs))
	}
	for _, run := range runs {
		if run.Violations != 0 {
			t.Fatalf("seed %d: dominance violated: %s", run.Seed, run.First)
		}
		if run.Checked == 0 {
			t.Fatalf("seed %d: no checks performed", run.Seed)
		}
	}
}

func TestDominanceRejectsBadConfig(t *testing.T) {
	bad := []DominanceConfig{
		{K: 0, Rho: 0.5, MuI: 1, MuE: 1, PolicyA: "IF", PolicyB: "EF", Arrivals: 10, Seeds: 1},
		{K: 2, Rho: 1.2, MuI: 1, MuE: 1, PolicyA: "IF", PolicyB: "EF", Arrivals: 10, Seeds: 1},
		{K: 2, Rho: 0.5, MuI: 1, MuE: 1, PolicyA: "NOPE", PolicyB: "EF", Arrivals: 10, Seeds: 1},
		{K: 2, Rho: 0.5, MuI: 1, MuE: 1, PolicyA: "IF", PolicyB: "EF", Arrivals: 0, Seeds: 1},
	}
	for i, cfg := range bad {
		if _, err := Dominance(context.Background(), cfg, Options{}); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestBusyPeriodAblationParallel(t *testing.T) {
	rows, err := BusyPeriodAblation(context.Background(), 4, 0.8, []float64{1.0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 { // IF and EF
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	serial, err := ablationRows(4, 0.8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if rows[i] != serial[i] {
			t.Fatalf("row %d differs from serial driver: %+v vs %+v", i, rows[i], serial[i])
		}
	}
}

func TestBusyPeriodAblationDriver(t *testing.T) {
	rows, err := BusyPeriodAblation(context.Background(), 4, 0.8, []float64{1.0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.ErrCox) > math.Abs(r.ErrExp)+1e-12 {
			t.Fatalf("%s: 3-moment fit worse than 1-moment: %+v", r.Policy, r)
		}
		if math.Abs(r.ErrCox) > 0.01 {
			t.Fatalf("%s: 3-moment error %v exceeds 1%%", r.Policy, r.ErrCox)
		}
	}
}

func TestTheorem6Driver(t *testing.T) {
	res, err := Theorem6(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.IFTotal-res.IFExpect) > 1e-9 || math.Abs(res.EFTotal-res.EFExpect) > 1e-9 {
		t.Fatalf("counterexample mismatch: %+v", res)
	}
}

func TestSRPTExperimentBounded(t *testing.T) {
	rows := SRPTExperiment(50, 3)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.WorstRatio > 4 {
			t.Fatalf("family %+v exceeded the factor-4 bound", r)
		}
		if r.MeanRatio < 1 {
			t.Fatalf("family %+v has ratio < 1: bound broken", r)
		}
	}
}

func TestSimulateSmoke(t *testing.T) {
	m := queueing.ForLoad(4, 0.5, 1, 1)
	p, err := policy.ByName("IF", m.MuI, m.MuE)
	if err != nil {
		t.Fatal(err)
	}
	res := Simulate(m, p, SimOptions{Seed: 1, WarmupJobs: 1000, MaxJobs: 20000})
	if res.MeanT <= 0 || math.IsNaN(res.MeanT) {
		t.Fatalf("nonsense E[T] %v", res.MeanT)
	}
}
