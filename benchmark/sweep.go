package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mrt"
	"repro/internal/sim"
	wl "repro/internal/workload"
)

//go:embed specs/sweep.json
var sweepSpec []byte

//go:embed testdata/sweep_seed1.json
var sweepSeed1 []byte

var simPolicies = []string{"IF", "EF", "EQUI", "SRPT"}

// Science tolerances of the sweep check. At 100k measured jobs and two
// replications the rho 0.7 IF/EF means scatter up to about 4% around the
// matrix-analytic value over seeds 1-40, and utilization up to 0.01
// around rho; a broken policy or engine misses by far more.
const (
	utilTol = 0.02
	etTol   = 0.06
)

// loadSweep reads the checked-in sweep spec and seeds it from the run.
func loadSweep(seed uint64) (exp.Sweep, error) {
	var sw exp.Sweep
	dec := json.NewDecoder(bytes.NewReader(sweepSpec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return sw, fmt.Errorf("sweep spec: %w", err)
	}
	sw.BaseSeed = seed
	return sw, sw.Validate()
}

// sweepOnce runs the sweep through exp.Run and renders it with WriteJSON,
// as `simulate -json` would.
func sweepOnce(ctx context.Context, sw exp.Sweep, opt exp.Options, tr *tracer) ([]byte, error) {
	start := time.Now()
	rs, err := exp.Run(ctx, sw, opt)
	if tr != nil {
		tr.record(span{ID: tr.id(), Name: "exp.run", Start: tr.ns(start), End: tr.ns(time.Now())})
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	start = time.Now()
	err = rs.WriteJSON(&buf)
	if tr != nil {
		tr.record(span{ID: tr.id(), Name: "exp.render", Start: tr.ns(start), End: tr.ns(time.Now())})
	}
	return buf.Bytes(), err
}

// runSweep is the simulator's own workload: one grid sweep after another
// through exp.Run on the in-process pool, rendered to JSON. Half its cells
// run at rho 0.7 with few resident jobs, half at rho 0.98 with tens of
// them, where the stepping engines differ. It bypasses the service, the
// fabric and the wire.
func runSweep(r *run, seconds float64, tr *tracer) (measurement, error) {
	ctx := context.Background()
	var m measurement
	var sw exp.Sweep
	var opt exp.Options
	for range setups {
		start := time.Now()
		var err error
		if sw, err = loadSweep(r.seed); err != nil {
			return m, err
		}
		opt = exp.Options{Backend: exp.PoolBackend{Workers: workers}}
		if tr != nil {
			opt.Backend = tracedBackend{inner: timedPool{workers: workers, tr: tr}, tr: tr, name: "exp.submit"}
		}
		out, err := sweepOnce(ctx, sw, opt, tr)
		r.check(errors.Join(err, r.checkSweep(out)))
		m.setup = append(m.setup, time.Since(start).Seconds())
	}

	if tr != nil {
		tr.active.Store(true)
	}
	stopRSS := sampleRSS()
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		t := time.Now()
		out, err := sweepOnce(ctx, sw, opt, tr)
		ms := msSince(t)
		if !r.check(errors.Join(err, r.checkSweep(out))) {
			ms = math.Inf(1)
		}
		m.lat = append(m.lat, ms)
	}
	secs := time.Since(start).Seconds()
	m.rss = stopRSS()
	if tr != nil {
		tr.active.Store(false)
		r.putTaskMetrics(tr, secs)
		submits := tr.named("exp.submit")
		var agg []float64
		for _, s := range tr.named("exp.run") {
			agg = append(agg, float64(selfTime(s, submits))/1e6)
		}
		r.putPct("exp.aggregate_ms", agg, 50, "ms")
		r.putPct("exp.render_ms", durMs(tr.named("exp.render")), 50, "ms")
		r.simProbe()
	}
	return m, nil
}

// checkSweep checks one sweep output. The first output of the process is
// checked for science; every later one must repeat it byte for byte.
func (r *run) checkSweep(out []byte) error {
	if out == nil {
		return errors.New("sweep: no output")
	}
	if r.sweepRef != nil {
		if !bytes.Equal(out, r.sweepRef) {
			return errors.New("sweep: output differs from the first run's")
		}
		return nil
	}
	if r.seed == 1 {
		if err := jsonClose(out, sweepSeed1); err != nil {
			return fmt.Errorf("sweep: seed 1 reference: %w", err)
		}
	}
	var rs exp.ResultSet
	if err := json.Unmarshal(out, &rs); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, cr := range rs.Cells {
		c := cr.Cell
		if math.Abs(cr.Util-c.Rho) > utilTol {
			return fmt.Errorf("sweep: %v: utilization %g, want rho ± %g", c, cr.Util, utilTol)
		}
		if c.Rho > 0.7 || (c.Policy != "IF" && c.Policy != "EF") {
			continue
		}
		analyze := mrt.IF
		if c.Policy == "EF" {
			analyze = mrt.EF
		}
		want, err := analyze(core.ForLoad(c.K, c.Rho, c.MuI, c.MuE).Params(), mrt.Coxian3Moment)
		if err != nil {
			return fmt.Errorf("sweep: %v: analysis: %w", c, err)
		}
		if !within(cr.ET, want.T, etTol) {
			return fmt.Errorf("sweep: %v: E[T] %g, analysis %g (tolerance %g)", c, cr.ET, want.T, etTol)
		}
	}
	r.sweepRef = out
	return nil
}

// jsonClose compares two JSON documents: same structure and strings, equal
// integers, and other numbers within relTol relative — the tolerance that
// lets an equivalent engine or summation order pass.
func jsonClose(a, b []byte) error {
	var x, y any
	for _, p := range []struct {
		doc []byte
		v   *any
	}{{a, &x}, {b, &y}} {
		dec := json.NewDecoder(bytes.NewReader(p.doc))
		dec.UseNumber()
		if err := dec.Decode(p.v); err != nil {
			return err
		}
	}
	return closeValues(x, y, "$")
}

func closeValues(a, b any, path string) error {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: object shape differs", path)
		}
		for k, v := range x {
			if err := closeValues(v, y[k], path+"."+k); err != nil {
				return err
			}
		}
		return nil
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return fmt.Errorf("%s: array shape differs", path)
		}
		for i := range x {
			if err := closeValues(x[i], y[i], fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case json.Number:
		y, ok := b.(json.Number)
		if !ok {
			return fmt.Errorf("%s: %v vs %v", path, a, b)
		}
		if x == y {
			return nil
		}
		_, errX := strconv.ParseInt(string(x), 10, 64)
		_, errY := strconv.ParseInt(string(y), 10, 64)
		fx, err1 := x.Float64()
		fy, err2 := y.Float64()
		if (errX == nil && errY == nil) || err1 != nil || err2 != nil || !within(fx, fy, relTol) {
			return fmt.Errorf("%s: %s vs %s", path, x, y)
		}
		return nil
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s: %v vs %v", path, a, b)
	}
	return nil
}

// simProbe times the engine alone: sim.Run over one pre-generated arrival
// trace at k 16, rho 0.98 under each policy, and the trace generation
// itself. Event counts depend only on the trace, so they repeat exactly.
func (r *run) simProbe() {
	const n = 20000
	model := wl.ModelForLoad(16, 0.98, 2, 1)
	start := time.Now()
	trace := model.Trace(specSeed(r.seed, streamProbe, 0), n)
	r.put("workload.arrival_ns", float64(time.Since(start).Nanoseconds())/n, "ns", n)
	sys := core.ForLoad(16, 0.98, 2, 1)
	var events int64
	for _, p := range simPolicies {
		pol, err := sys.PolicyByName(p)
		if !r.check(err) {
			continue
		}
		start := time.Now()
		res := sim.Run(sim.RunConfig{K: 16, Policy: pol, Source: &sim.SliceSource{Arrivals: trace}, MaxJobs: n})
		took := time.Since(start)
		mt := res.Metrics
		ev := mt.Arrivals(sim.Inelastic) + mt.Arrivals(sim.Elastic) + mt.TotalCompletions()
		if res.Completions != n {
			err = fmt.Errorf("sim probe %s: %d completions of %d arrivals", p, res.Completions, n)
		}
		if !r.check(err) {
			continue
		}
		r.put("sim.event_ns."+p, float64(took.Nanoseconds())/float64(ev), "ns", int(ev))
		events += ev
	}
	r.put("sim.events", float64(events), "count", 0)
}
