package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Replication is the outcome of one independent simulation run of a cell.
type Replication struct {
	Rep    int     `json:"rep"`
	Seed   uint64  `json:"seed"`
	MeanT  float64 `json:"meanT"`
	MeanTI float64 `json:"meanTI"`
	MeanTE float64 `json:"meanTE"`
	// PerClass holds the per-class mean response times for cells with more
	// than two classes (class-mix cells); MeanTI/MeanTE mirror classes 0/1.
	PerClass    []float64 `json:"perClass,omitempty"`
	MeanN       float64   `json:"meanN"`
	Util        float64   `json:"util"`
	Completions int64     `json:"completions"`
	// Trimmed counts observations discarded by MSER warmup trimming
	// (AutoWarmup mode only).
	Trimmed int `json:"trimmed,omitempty"`
	// BatchCI is the within-replication batch-means 95% half-width
	// (Batches > 1 only).
	BatchCI float64 `json:"batchCI,omitempty"`
	// ESS is the effective sample size of the response series, n/tau with
	// tau the integrated autocorrelation time (series modes only).
	ESS float64 `json:"ess,omitempty"`
	// P99 is the 99th-percentile response time over all classes and
	// P99PerClass the per-class tails, recorded through a reservoir-sampled
	// sim.ResponseRecorder when Sweep.Tail is set (0 for a class with no
	// completions). In AutoWarmup mode the recorder covers the untrimmed
	// post-warmup stream.
	P99         float64   `json:"p99,omitempty"`
	P99PerClass []float64 `json:"p99PerClass,omitempty"`
	// Quantiles holds the response-time quantiles of Sweep.TailQuantiles,
	// in that order, over all classes; QuantilesPerClass[c][i] is class c's
	// TailQuantiles[i] quantile (0 for a class with no completions).
	Quantiles         []float64   `json:"quantiles,omitempty"`
	QuantilesPerClass [][]float64 `json:"quantilesPerClass,omitempty"`
}

// runReplication executes one (cell, replication) task. Panics anywhere in
// the model, policy or simulator surface as errors for this task only; the
// shared executor (ExecuteTask) prefixes every error with the cell and
// replication identity.
func (sw Sweep) runReplication(c Cell, rep int) (r Replication, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	seed := sw.RepSeed(c, rep)
	classes, source, pol, err := c.workload()
	if err != nil {
		return r, err
	}
	warmup := sw.Warmup
	if sw.AutoWarmup {
		warmup = 0
	}
	cfg := sim.RunConfig{K: c.K, Policy: pol, Source: source(seed), Classes: classes,
		WarmupJobs: warmup, MaxJobs: sw.Jobs}
	r = Replication{Rep: rep, Seed: seed}

	numClasses := len(classes)
	// The tail recorder draws its reservoir decisions from a stream of the
	// replication seed, so p99 values are as deterministic as the means.
	var rr *sim.ResponseRecorder
	if sw.Tail {
		rr = sim.NewClassResponseRecorder(numClasses, tailReservoirCap, seed)
	}
	recordTail := func() {
		if rr == nil {
			return
		}
		r.P99 = zeroNaN(rr.QuantileAll(0.99))
		r.P99PerClass = make([]float64, numClasses)
		for cl := range r.P99PerClass {
			r.P99PerClass[cl] = zeroNaN(rr.Quantile(sim.Class(cl), 0.99))
		}
		if len(sw.TailQuantiles) == 0 {
			return
		}
		r.Quantiles = make([]float64, len(sw.TailQuantiles))
		for i, q := range sw.TailQuantiles {
			r.Quantiles[i] = zeroNaN(rr.QuantileAll(q))
		}
		r.QuantilesPerClass = make([][]float64, numClasses)
		for cl := range r.QuantilesPerClass {
			qs := make([]float64, len(sw.TailQuantiles))
			for i, q := range sw.TailQuantiles {
				qs[i] = zeroNaN(rr.Quantile(sim.Class(cl), q))
			}
			r.QuantilesPerClass[cl] = qs
		}
	}

	// One run serves both modes: the series modes observe every measured
	// completion, and the tail recorder rides along on either.
	var series []float64
	var seriesClasses []sim.Class
	var observe func(sim.Completion)
	switch {
	case sw.collectSeries():
		series = make([]float64, 0, sw.Jobs)
		seriesClasses = make([]sim.Class, 0, sw.Jobs)
		observe = func(done sim.Completion) {
			series = append(series, done.Response())
			seriesClasses = append(seriesClasses, done.Job.Class)
			if rr != nil {
				rr.Observe(done)
			}
		}
	case rr != nil:
		observe = rr.Observe
	}
	res := sim.RunObserved(cfg, observe)
	r.MeanN = res.MeanN
	r.Util = res.Metrics.Utilization(c.K)
	if !sw.collectSeries() {
		// Per-class means are NaN for a class with no completions in the
		// measured window; Replication carries 0 instead (see zeroNaN) so
		// results stay JSON-encodable — identical under every backend and
		// in the FileCache.
		r.MeanT = res.MeanT
		r.MeanTI, r.MeanTE = zeroNaN(res.MeanTI), zeroNaN(res.MeanTE)
		if len(res.PerClassT) > 2 {
			r.PerClass = make([]float64, len(res.PerClassT))
			for i, v := range res.PerClassT {
				r.PerClass[i] = zeroNaN(v)
			}
		}
		r.Completions = res.Completions
		recordTail()
		return r, nil
	}

	trim := 0
	if sw.AutoWarmup {
		trim = stats.MSER5Trim(series)
	}
	tail := series[trim:]
	if len(tail) == 0 {
		return r, fmt.Errorf("empty response series after trimming")
	}
	var total stats.Summary
	byClass := make([]stats.Summary, numClasses)
	for i, v := range tail {
		total.Add(v)
		byClass[seriesClasses[trim+i]].Add(v)
	}
	r.MeanT = total.Mean()
	r.MeanTI = zeroNaN(byClass[sim.Inelastic].Mean())
	if numClasses > 1 {
		r.MeanTE = zeroNaN(byClass[sim.Elastic].Mean())
	}
	if numClasses > 2 {
		r.PerClass = make([]float64, numClasses)
		for i := range byClass {
			r.PerClass[i] = zeroNaN(byClass[i].Mean())
		}
	}
	r.Completions = int64(len(tail))
	r.Trimmed = trim
	r.ESS = stats.EffectiveSampleSize(tail)
	if sw.Batches > 1 {
		bm, err := stats.BatchMeans(tail, sw.Batches)
		if err != nil {
			return r, err
		}
		r.BatchCI = bm.CI95()
	}
	recordTail()
	return r, nil
}

// tailReservoirCap bounds the per-class sample memory of the Sweep.Tail
// percentile recorder; beyond it the recorder switches to reservoir
// sampling (deterministic given the replication seed).
const tailReservoirCap = 1 << 16

// zeroNaN maps the recorder's NaN (class never observed) to 0 so tail
// fields stay JSON-encodable — NaN cannot cross the FileCache or the
// fabric wire.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// CellResult aggregates a cell's replications. All aggregates are computed
// from the Reps slice in replication order, never in completion order.
type CellResult struct {
	Cell Cell          `json:"cell"`
	Reps []Replication `json:"reps"`
	// ET is the mean response time over replication means; ETCI its 95%
	// half-width (from replication variance when Reps >= 2, else the single
	// replication's batch-means CI when available).
	ET   float64 `json:"et"`
	ETCI float64 `json:"etCI"`
	ETI  float64 `json:"etI"`
	ETE  float64 `json:"etE"`
	// ETPerClass holds per-class aggregates for class-mix cells with more
	// than two classes.
	ETPerClass []float64 `json:"etPerClass,omitempty"`
	// P99 and P99PerClass average the per-replication tail percentiles
	// (Sweep.Tail sweeps only).
	P99         float64   `json:"p99,omitempty"`
	P99PerClass []float64 `json:"p99PerClass,omitempty"`
	// Quantiles and QuantilesPerClass average the per-replication
	// quantile sets (Sweep.TailQuantiles sweeps only), index-aligned with
	// Sweep.TailQuantiles.
	Quantiles         []float64   `json:"quantiles,omitempty"`
	QuantilesPerClass [][]float64 `json:"quantilesPerClass,omitempty"`
	EN                float64     `json:"en"`
	Util              float64     `json:"util"`
	Completions       int64       `json:"completions"`
}

func aggregate(c Cell, reps []Replication) CellResult {
	var t, ti, te, n, u, p99 stats.Summary
	var perClass, p99PerClass, quantiles []stats.Summary
	var quantilesPerClass [][]stats.Summary
	var comp int64
	for _, r := range reps {
		t.Add(r.MeanT)
		// Per-class statistics use 0 as the "class completed nothing in
		// this replication" marker (responses are strictly positive, so 0
		// never occurs naturally); such replications are excluded from
		// that class's mean rather than biasing it toward 0.
		if r.MeanTI > 0 {
			ti.Add(r.MeanTI)
		}
		if r.MeanTE > 0 {
			te.Add(r.MeanTE)
		}
		n.Add(r.MeanN)
		u.Add(r.Util)
		comp += r.Completions
		if len(r.PerClass) > 0 {
			if perClass == nil {
				perClass = make([]stats.Summary, len(r.PerClass))
			}
			for i, v := range r.PerClass {
				if v > 0 {
					perClass[i].Add(v)
				}
			}
		}
		if len(r.P99PerClass) > 0 {
			if r.P99 > 0 {
				p99.Add(r.P99)
			}
			if p99PerClass == nil {
				p99PerClass = make([]stats.Summary, len(r.P99PerClass))
			}
			for i, v := range r.P99PerClass {
				if v > 0 {
					p99PerClass[i].Add(v)
				}
			}
		}
		if len(r.Quantiles) > 0 {
			if quantiles == nil {
				quantiles = make([]stats.Summary, len(r.Quantiles))
				quantilesPerClass = make([][]stats.Summary, len(r.QuantilesPerClass))
				for cl := range quantilesPerClass {
					quantilesPerClass[cl] = make([]stats.Summary, len(r.Quantiles))
				}
			}
			for i, v := range r.Quantiles {
				if v > 0 {
					quantiles[i].Add(v)
				}
			}
			for cl, qs := range r.QuantilesPerClass {
				for i, v := range qs {
					if v > 0 {
						quantilesPerClass[cl][i].Add(v)
					}
				}
			}
		}
	}
	mean0 := func(s stats.Summary) float64 {
		if s.N() == 0 {
			return 0 // the class completed nothing in any replication
		}
		return s.Mean()
	}
	cr := CellResult{
		Cell: c, Reps: reps,
		ET: t.Mean(), ETI: mean0(ti), ETE: mean0(te),
		EN: n.Mean(), Util: u.Mean(), Completions: comp,
	}
	for i := range perClass {
		cr.ETPerClass = append(cr.ETPerClass, mean0(perClass[i]))
	}
	if p99.N() > 0 {
		cr.P99 = p99.Mean()
	}
	for i := range p99PerClass {
		cr.P99PerClass = append(cr.P99PerClass, mean0(p99PerClass[i]))
	}
	for i := range quantiles {
		cr.Quantiles = append(cr.Quantiles, mean0(quantiles[i]))
	}
	for cl := range quantilesPerClass {
		qs := make([]float64, len(quantilesPerClass[cl]))
		for i := range qs {
			qs[i] = mean0(quantilesPerClass[cl][i])
		}
		cr.QuantilesPerClass = append(cr.QuantilesPerClass, qs)
	}
	if t.N() >= 2 {
		cr.ETCI = t.CI95()
	} else if len(reps) == 1 {
		cr.ETCI = reps[0].BatchCI
	}
	return cr
}

// ResultSet is a completed sweep: one CellResult per grid cell, in grid
// order.
type ResultSet struct {
	Sweep Sweep        `json:"sweep"`
	Cells []CellResult `json:"cells"`
}

// WriteCSV emits one row per cell. Per-class columns (means, and p99 tails
// for Sweep.Tail sweeps) are joined with ';'. For Sweep.TailQuantiles
// sweeps the quantiles column holds q=value pairs joined with ';' and the
// quantiles_per_class column holds one such group per class, classes
// joined with '|'.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "k,rho,muI,muE,scenario,mix,policy,reps,ET,ET_ci95,ET_I,ET_E,EN,util,completions,ET_per_class,p99,p99_per_class,quantiles,quantiles_per_class"); err != nil {
		return err
	}
	joined := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprintf("%.6f", v)
		}
		return strings.Join(parts, ";")
	}
	qJoined := func(vs []float64) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprintf("%g=%.6f", rs.Sweep.TailQuantiles[i], v)
		}
		return strings.Join(parts, ";")
	}
	for _, cr := range rs.Cells {
		c := cr.Cell
		p99 := ""
		if len(cr.P99PerClass) > 0 {
			p99 = fmt.Sprintf("%.6f", cr.P99)
		}
		qPerClass := make([]string, len(cr.QuantilesPerClass))
		for cl, qs := range cr.QuantilesPerClass {
			qPerClass[cl] = qJoined(qs)
		}
		if _, err := fmt.Fprintf(w, "%d,%g,%g,%g,%s,%s,%s,%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.4f,%d,%s,%s,%s,%s,%s\n",
			c.K, c.Rho, c.MuI, c.MuE, c.Scenario, c.Mix, c.Policy, len(cr.Reps),
			cr.ET, cr.ETCI, cr.ETI, cr.ETE, cr.EN, cr.Util, cr.Completions,
			joined(cr.ETPerClass), p99, joined(cr.P99PerClass),
			qJoined(cr.Quantiles), strings.Join(qPerClass, "|")); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the full result set, including per-replication detail.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}
