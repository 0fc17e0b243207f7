// Command figures regenerates every figure of the paper's evaluation
// section as CSV (and an ASCII rendering for the heat maps), dispatching
// each figure's parameter grid across an internal/exp backend — the
// in-process goroutine pool by default, or a networked fabric dispatcher
// with -dispatcher host:port (bit-identical output either way):
//
//	figures -fig 4            # heat maps of Figure 4a/4b/4c
//	figures -fig 5            # curves of Figure 5a/5b/5c
//	figures -fig 6            # scaling curves of Figure 6a/6b
//	figures -fig validate     # analysis-vs-simulation agreement table
//	figures -fig ablation     # busy-period fit ablation
//	figures -fig mix          # Section 6 class-mix sweep (N-class engine)
//	figures -fig all          # everything, written to -outdir
//	figures -fig mix -dispatcher 127.0.0.1:9071
//	figures -fig all -cache figures.jsonl    # resume an interrupted run
//
// -cache persists finished work as JSONL: the mix sweep at cell
// granularity and every grid point of the other figures as task outcomes
// (exp.TaskKey), so re-running after an interruption recomputes only what
// is missing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/plot"
)

// xsOf and ysOf unpack curve points into plot series.
func xsOf(points []exp.CurvePoint) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.MuI
	}
	return out
}

func ysOf(points []exp.CurvePoint, ifPolicy bool) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		if ifPolicy {
			out[i] = p.TIF
		} else {
			out[i] = p.TEF
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		fig      = flag.String("fig", "all", "which artifact: 4, 5, 6, validate, ablation, mix, all")
		outdir   = flag.String("outdir", "", "write CSVs here instead of stdout")
		quick    = flag.Bool("quick", false, "smaller grids / shorter simulations")
		svg      = flag.Bool("svg", false, "also render SVG figures into -outdir")
		workers  = flag.Int("workers", 0, "worker pool size when -dispatcher is unset (0 = GOMAXPROCS)")
		dispatch = flag.String("dispatcher", "", "run on the fabric dispatcher at this address (host:port) instead of the in-process pool")
		cache    = flag.String("cache", "", "JSONL cache; finished cells and grid points are reused across runs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *svg && *outdir == "" {
		log.Fatal("-svg requires -outdir")
	}
	opt := exp.Options{Workers: *workers}
	if *dispatch != "" {
		opt.Backend = &fabric.Backend{Addr: *dispatch, Name: "figures"}
	}
	if *cache != "" {
		fc, err := exp.OpenFileCache(*cache)
		if err != nil {
			log.Fatal(err)
		}
		if msg := exp.CorruptWarning(*cache, fc.Corrupt()); msg != "" {
			log.Print(msg)
		}
		defer fc.Close()
		// One file serves both granularities: the mix sweep caches whole
		// cells, the point drivers (Figures 4-6, validation, ablation)
		// cache task outcomes keyed by exp.TaskKey.
		opt.Cache = fc
		opt.TaskCache = fc
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	writeSVG := func(name string, render func(io.Writer) error) {
		if !*svg {
			return
		}
		f, err := os.Create(filepath.Join(*outdir, name))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := render(f); err != nil {
			log.Fatal(err)
		}
	}

	out := func(name string) (io.Writer, func()) {
		if *outdir == "" {
			fmt.Printf("==== %s ====\n", name)
			return os.Stdout, func() {}
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(filepath.Join(*outdir, name))
		if err != nil {
			log.Fatal(err)
		}
		return f, func() { f.Close() }
	}

	grid := exp.DefaultMuGrid()
	if *quick {
		grid = []float64{0.25, 0.75, 1.5, 2.5, 3.5}
	}

	runFig4 := func() {
		for _, cfg := range []struct {
			rho  float64
			name string
		}{{0.5, "fig4a_low_load.csv"}, {0.7, "fig4b_med_load.csv"}, {0.9, "fig4c_high_load.csv"}} {
			points, err := exp.Figure4(ctx, 4, cfg.rho, grid, opt)
			if err != nil {
				log.Fatal(err)
			}
			w, closeFn := out(cfg.name)
			if err := exp.WriteHeatmapCSV(w, points); err != nil {
				log.Fatal(err)
			}
			closeFn()
			fmt.Printf("\nFigure 4 heat map, rho=%.1f (k=4, lambdaI=lambdaE):\n%s\n",
				cfg.rho, exp.RenderHeatmapASCII(points))
			sc := plot.Scatter{
				Title:  fmt.Sprintf("Figure 4: IF vs EF, rho=%.1f, k=4", cfg.rho),
				XLabel: "muI", YLabel: "muE",
				TrueName: "IF superior", FalseName: "EF superior",
			}
			for _, p := range points {
				sc.X = append(sc.X, p.MuI)
				sc.Y = append(sc.Y, p.MuE)
				sc.Class = append(sc.Class, p.IFWins)
			}
			writeSVG(strings.TrimSuffix(cfg.name, ".csv")+".svg", sc.Render)
		}
	}

	runFig5 := func() {
		for _, cfg := range []struct {
			rho  float64
			name string
		}{{0.5, "fig5a_low_load.csv"}, {0.7, "fig5b_med_load.csv"}, {0.9, "fig5c_high_load.csv"}} {
			points, err := exp.Figure5(ctx, 4, cfg.rho, grid, opt)
			if err != nil {
				log.Fatal(err)
			}
			w, closeFn := out(cfg.name)
			if err := exp.WriteCurveCSV(w, points); err != nil {
				log.Fatal(err)
			}
			closeFn()
			ch := plot.LineChart{
				Title:  fmt.Sprintf("Figure 5: E[T] vs muI, rho=%.1f (muE=1, k=4)", cfg.rho),
				XLabel: "muI", YLabel: "E[T]",
				Series: []plot.Series{
					{Name: "IF", X: xsOf(points), Y: ysOf(points, true)},
					{Name: "EF", X: xsOf(points), Y: ysOf(points, false)},
				},
			}
			writeSVG(strings.TrimSuffix(cfg.name, ".csv")+".svg", ch.Render)
		}
		fmt.Println("Figure 5 curves written (E[T] vs muI; muE=1, k=4).")
	}

	runFig6 := func() {
		ks := []int{2, 3, 4, 5, 6, 8, 10, 12, 14, 16}
		if *quick {
			ks = []int{2, 4, 8, 16}
		}
		for _, cfg := range []struct {
			muI  float64
			name string
		}{{0.25, "fig6a_muI_0.25.csv"}, {3.25, "fig6b_muI_3.25.csv"}} {
			points, err := exp.Figure6(ctx, 0.9, cfg.muI, 1.0, ks, opt)
			if err != nil {
				log.Fatal(err)
			}
			w, closeFn := out(cfg.name)
			if err := exp.WriteKCurveCSV(w, points); err != nil {
				log.Fatal(err)
			}
			closeFn()
			var ks, ifY, efY []float64
			for _, p := range points {
				ks = append(ks, float64(p.K))
				ifY = append(ifY, p.TIF)
				efY = append(efY, p.TEF)
			}
			ch := plot.LineChart{
				Title:  fmt.Sprintf("Figure 6: E[T] vs k, rho=0.9 (muI=%.2f, muE=1)", cfg.muI),
				XLabel: "k", YLabel: "E[T]",
				Series: []plot.Series{
					{Name: "IF", X: ks, Y: ifY},
					{Name: "EF", X: ks, Y: efY},
				},
			}
			writeSVG(strings.TrimSuffix(cfg.name, ".csv")+".svg", ch.Render)
		}
		fmt.Println("Figure 6 curves written (E[T] vs k; rho=0.9).")
	}

	runValidate := func() {
		simOpt := exp.SimOptions{Seed: 7, WarmupJobs: 50_000, MaxJobs: 1_000_000}
		muIs := []float64{0.5, 1.0, 2.0, 3.0}
		if *quick {
			simOpt.MaxJobs = 200_000
			muIs = []float64{0.5, 2.0}
		}
		rows, err := exp.ValidateAnalysis(ctx, 4, 0.7, muIs, simOpt, opt)
		if err != nil {
			log.Fatal(err)
		}
		w, closeFn := out("validation.csv")
		if err := exp.WriteValidationTable(w, rows); err != nil {
			log.Fatal(err)
		}
		closeFn()
	}

	// runMix sweeps the Section 6 class-mix presets end to end on the
	// unified N-class engine: every mix × policy cell is one simulation
	// replication set on the configured backend. Tail mode reports
	// per-class p99 response times alongside the means (ROADMAP "tail
	// metrics on mixes").
	runMix := func() {
		sweep := exp.Sweep{
			Name: "figures-mix",
			Grid: exp.Grid{
				K:        []int{8},
				Rho:      []float64{0.5, 0.7},
				Mixes:    []string{"threeclass", "partialelastic", "cappedladder"},
				Policies: []string{"LFF", "SMF", "EF", "EQUI", "FCFS"},
			},
			Reps: 3, Warmup: 20_000, Jobs: 200_000,
			Tail: true,
		}
		if *quick {
			sweep.Grid.Rho = []float64{0.7}
			sweep.Reps = 1
			sweep.Warmup, sweep.Jobs = 5_000, 50_000
		}
		rs, err := exp.Run(ctx, sweep, opt)
		if err != nil {
			log.Fatal(err)
		}
		w, closeFn := out("mix_classes.csv")
		if err := rs.WriteCSV(w); err != nil {
			log.Fatal(err)
		}
		closeFn()
		fmt.Println("class-mix sweep written (Section 6 scenarios, overall and per-class E[T]).")
		for _, mixName := range sweep.Grid.Mixes {
			ch := plot.LineChart{
				Title:  fmt.Sprintf("Class mix %s: E[T] vs rho (k=8)", mixName),
				XLabel: "rho", YLabel: "E[T]",
			}
			for _, pol := range sweep.Grid.Policies {
				var xs, ys []float64
				for _, cr := range rs.Cells {
					if cr.Cell.Mix == mixName && cr.Cell.Policy == pol {
						xs = append(xs, cr.Cell.Rho)
						ys = append(ys, cr.ET)
					}
				}
				ch.Series = append(ch.Series, plot.Series{Name: pol, X: xs, Y: ys})
			}
			writeSVG("mix_"+mixName+".svg", ch.Render)
		}
	}

	runAblation := func() {
		muIs := []float64{0.5, 1.0, 2.0}
		if *quick {
			muIs = []float64{1.0}
		}
		rows, err := exp.BusyPeriodAblation(ctx, 4, 0.8, muIs, opt)
		if err != nil {
			log.Fatal(err)
		}
		w, closeFn := out("ablation_busyperiod.csv")
		fmt.Fprintln(w, "rho,muI,policy,ET_exact,ET_coxian3,ET_exp1,err_coxian3,err_exp1")
		for _, r := range rows {
			fmt.Fprintf(w, "%g,%g,%s,%.6f,%.6f,%.6f,%+.4f%%,%+.4f%%\n",
				r.Rho, r.MuI, r.Policy, r.Exact, r.Coxian3, r.Exp1, 100*r.ErrCox, 100*r.ErrExp)
		}
		closeFn()
	}

	switch *fig {
	case "4":
		runFig4()
	case "5":
		runFig5()
	case "6":
		runFig6()
	case "validate":
		runValidate()
	case "ablation":
		runAblation()
	case "mix":
		runMix()
	case "all":
		runFig4()
		runFig5()
		runFig6()
		runValidate()
		runAblation()
		runMix()
	default:
		log.Fatalf("unknown figure %q", *fig)
	}
}
