package main

import (
	"context"
	_ "embed"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mrt"
)

// workers sizes every pool and fabric: the benchmark is sized for a
// two-core machine, with client and service sharing the same process.
const workers = 2

// setups is how many times each workload sets its system up; setup_s is
// the median. Only the smoke test lowers it.
var setups = 3

// relTol is how far a recomputed number may drift from its reference: far
// above floating-point reassociation noise, far below any modelling change.
const relTol = 1e-9

//go:embed testdata/figures.csv
var figuresCSV string

// figRow is one point of the paper's Figures 4-6.
type figRow struct {
	panel         string
	k             int
	rho, muI, muE float64
	tif, tef      float64
}

// figureSet computes the full Figure 4a-c, 5a-c and 6a-b point sets with
// the same parameters as the repository's figure benchmarks.
func figureSet(ctx context.Context, opt exp.Options) ([]figRow, error) {
	grid := exp.DefaultMuGrid()
	var rows []figRow
	for i, rho := range []float64{0.5, 0.7, 0.9} {
		pts, err := exp.Figure4(ctx, 4, rho, grid, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			rows = append(rows, figRow{fmt.Sprintf("4%c", 'a'+i), 4, rho, p.MuI, p.MuE, p.TIF, p.TEF})
		}
	}
	for i, rho := range []float64{0.5, 0.7, 0.9} {
		pts, err := exp.Figure5(ctx, 4, rho, grid, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			rows = append(rows, figRow{fmt.Sprintf("5%c", 'a'+i), 4, rho, p.MuI, 1, p.TIF, p.TEF})
		}
	}
	for i, muI := range []float64{0.25, 3.25} {
		pts, err := exp.Figure6(ctx, 0.9, muI, 1, []int{2, 4, 8, 16}, opt)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			rows = append(rows, figRow{fmt.Sprintf("6%c", 'a'+i), p.K, 0.9, muI, 1, p.TIF, p.TEF})
		}
	}
	return rows, nil
}

func writeFigures(w io.Writer, rows []figRow) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"panel", "k", "rho", "muI", "muE", "tif", "tef"})
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		cw.Write([]string{r.panel, strconv.Itoa(r.k), g(r.rho), g(r.muI), g(r.muE), g(r.tif), g(r.tef)})
	}
	cw.Flush()
	return cw.Error()
}

func parseFigures(s string) ([]figRow, error) {
	recs, err := csv.NewReader(strings.NewReader(s)).ReadAll()
	if err != nil || len(recs) < 2 {
		return nil, fmt.Errorf("figures reference: %v", err)
	}
	rows := make([]figRow, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		var f [5]float64
		for i := range f {
			if f[i], err = strconv.ParseFloat(rec[2+i], 64); err != nil {
				return nil, fmt.Errorf("figures reference: %w", err)
			}
		}
		k, err := strconv.Atoi(rec[1])
		if err != nil {
			return nil, fmt.Errorf("figures reference: %w", err)
		}
		rows = append(rows, figRow{rec[0], k, f[0], f[1], f[2], f[3], f[4]})
	}
	return rows, nil
}

// within reports whether got agrees with want to tol relative.
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// checkFigures compares a figure set with the reference point by point and
// checks the paper's Figure 4c outcome: IF wins 106 of the 196 cells.
func checkFigures(rows, ref []figRow) error {
	if len(rows) != len(ref) {
		return fmt.Errorf("figures: %d points, reference has %d", len(rows), len(ref))
	}
	ifWins, efWins := 0, 0
	for i, r := range rows {
		w := ref[i]
		if r.panel != w.panel || r.k != w.k || r.rho != w.rho || r.muI != w.muI || r.muE != w.muE {
			return fmt.Errorf("figures: point %d is %+v, reference %+v", i, r, w)
		}
		if !within(r.tif, w.tif, relTol) || !within(r.tef, w.tef, relTol) {
			return fmt.Errorf("figures: %s k=%d muI=%g muE=%g: E[T] %g/%g, reference %g/%g",
				r.panel, r.k, r.muI, r.muE, r.tif, r.tef, w.tif, w.tef)
		}
		if r.panel == "4c" {
			if r.tif <= r.tef {
				ifWins++
			} else {
				efWins++
			}
		}
	}
	if ifWins != 106 || efWins != 90 {
		return fmt.Errorf("figures: Figure 4c splits %d IF / %d EF, want 106 / 90", ifWins, efWins)
	}
	return nil
}

// runFigures is the paper's own artefact: the full Figure 4-6 analysis,
// closed loop, one figure set after another on the in-process pool. It
// never touches the simulator, the service or the fabric, so it is the
// control that engine and serving changes must leave alone.
func runFigures(r *run, seconds float64, tr *tracer) (measurement, error) {
	ctx := context.Background()
	var m measurement
	var ref []figRow
	var opt exp.Options
	for range setups {
		start := time.Now()
		var err error
		if ref, err = parseFigures(figuresCSV); err != nil {
			return m, err
		}
		opt = exp.Options{Backend: exp.PoolBackend{Workers: workers}}
		if tr != nil {
			opt.Backend = timedPool{workers: workers, tr: tr}
		}
		rows, err := figureSet(ctx, opt)
		r.check(errors.Join(err, checkFigures(rows, ref)))
		m.setup = append(m.setup, time.Since(start).Seconds())
	}

	if tr != nil {
		tr.active.Store(true)
	}
	stopRSS := sampleRSS()
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		t := time.Now()
		rows, err := figureSet(ctx, opt)
		ms := msSince(t)
		if !r.check(errors.Join(err, checkFigures(rows, ref))) {
			ms = math.Inf(1)
		}
		m.lat = append(m.lat, ms)
	}
	secs := time.Since(start).Seconds()
	m.rss = stopRSS()
	if tr != nil {
		tr.active.Store(false)
		r.putTaskMetrics(tr, secs)
		r.mrtProbe(ref)
	}
	return m, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// mrtProbe times the analysis layer alone: mrt.IF and mrt.EF with the
// three-moment Coxian busy-period fit at every Figure 4c point, each result
// checked against the reference the full pipeline produced.
func (r *run) mrtProbe(ref []figRow) {
	var ifMs, efMs []float64
	for _, w := range ref {
		if w.panel != "4c" {
			continue
		}
		p := core.ForLoad(w.k, w.rho, w.muI, w.muE).Params()
		t := time.Now()
		ifRes, err1 := mrt.IF(p, mrt.Coxian3Moment)
		ifMs = append(ifMs, msSince(t))
		t = time.Now()
		efRes, err2 := mrt.EF(p, mrt.Coxian3Moment)
		efMs = append(efMs, msSince(t))
		err := errors.Join(err1, err2)
		if err == nil && (!within(ifRes.T, w.tif, relTol) || !within(efRes.T, w.tef, relTol)) {
			err = fmt.Errorf("mrt probe at muI=%g muE=%g: %g/%g, reference %g/%g", w.muI, w.muE, ifRes.T, efRes.T, w.tif, w.tef)
		}
		r.check(err)
	}
	r.putPct("mrt.if_ms.p50", ifMs, 50, "ms")
	r.putPct("mrt.ef_ms.p50", efMs, 50, "ms")
}

// putTaskMetrics reports the executor layer from the exp.task spans of a
// pool-backed workload: task counts and times by kind, and how busy the
// pool's workers were over the timed phase.
func (r *run) putTaskMetrics(tr *tracer, secs float64) {
	by := map[string][]float64{}
	busy := 0.0
	for _, s := range tr.named("exp.task") {
		ms := float64(s.dur()) / 1e6
		by[s.Attr] = append(by[s.Attr], ms)
		busy += ms
	}
	var sims, low []float64
	for attr, xs := range by {
		if strings.HasPrefix(attr, "sim/") {
			sims = append(sims, xs...)
		}
		if strings.HasPrefix(attr, "sim/low/") {
			low = append(low, xs...)
		}
	}
	r.put("exp.tasks.analyze", float64(len(by["analyze"])), "count", 0)
	r.putPct("exp.task_ms.analyze.p50", by["analyze"], 50, "ms")
	r.putPct("exp.task_ms.analyze.p99", by["analyze"], 99, "ms")
	r.put("exp.tasks.sim", float64(len(sims)), "count", 0)
	r.putPct("exp.task_ms.sim.lowocc.p50", low, 50, "ms")
	for _, p := range simPolicies {
		r.putPct("exp.task_ms.sim.highocc."+p+".p50", by["sim/high/"+p], 50, "ms")
	}
	r.put("exp.pool_busy_pct", 100*busy/1000/(workers*secs), "%", 0)
}
