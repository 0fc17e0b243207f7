// Command benchmark is the repository's end-to-end benchmark. It stands the
// system up in-process through its public constructors only, drives one of
// four workloads for a fixed time, checks every output, and prints the
// metrics BENCHMARK.json names: the end-to-end metrics untraced, or, with
// --trace 1, the per-layer metrics of a traced run. See README.md.
//
//	benchmark [--workload all|figures|sweep|serve-cold|serve-mixed] [--seed N]
//	          [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE]
//	benchmark compare [--bench BENCHMARK.json] A.jsonl B.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// workload is one set of inputs the benchmark drives.
type workload struct {
	name string
	// run sets the system up several times, then drives its timed phase
	// for the given seconds. With a tracer it measures through the traced
	// wrappers and adds the per-layer metrics to r.
	run func(r *run, seconds float64, tr *tracer) (measurement, error)
}

var workloads = []workload{
	{"figures", runFigures},
	{"sweep", runSweep},
	{"serve-cold", runCold},
	{"serve-mixed", runMixed},
}

// measurement is what a workload's untraced phase yields for the
// end-to-end metrics.
type measurement struct {
	setup []float64 // seconds, one per set-up
	lat   []float64 // milliseconds per operation, +Inf for a failed one
	rss   float64   // mean resident memory over the timed phase, MB
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer list the metrics BENCHMARK.json names, in the
// order they print. Every workload reports all of them: a per-layer metric
// of a layer the workload never calls reads 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"exp.tasks.analyze", "count"},
	{"exp.task_ms.analyze.p50", "ms"},
	{"exp.task_ms.analyze.p99", "ms"},
	{"exp.tasks.sim", "count"},
	{"exp.task_ms.sim.lowocc.p50", "ms"},
	{"exp.task_ms.sim.highocc.IF.p50", "ms"},
	{"exp.task_ms.sim.highocc.EF.p50", "ms"},
	{"exp.task_ms.sim.highocc.EQUI.p50", "ms"},
	{"exp.task_ms.sim.highocc.SRPT.p50", "ms"},
	{"exp.pool_busy_pct", "%"},
	{"exp.aggregate_ms", "ms"},
	{"exp.render_ms", "ms"},
	{"exp.cache.get_us.p50", "us"},
	{"exp.cache.hit_ratio", "ratio"},
	{"mrt.if_ms.p50", "ms"},
	{"mrt.ef_ms.p50", "ms"},
	{"sim.event_ns.IF", "ns"},
	{"sim.event_ns.EF", "ns"},
	{"sim.event_ns.EQUI", "ns"},
	{"sim.event_ns.SRPT", "ns"},
	{"sim.events", "count"},
	{"workload.arrival_ns", "ns"},
	{"serve.requests", "count"},
	{"serve.handler_ms.cold.p50", "ms"},
	{"serve.handler_ms.cold.p99", "ms"},
	{"serve.self_ms.cold.p50", "ms"},
	{"serve.handler_us.hit.p50", "us"},
	{"serve.handler_us.hit.p99", "us"},
	{"serve.handler_us.variant.p50", "us"},
	{"serve.handler_us.variant.p99", "us"},
	{"serve.handler_ms.new.p99", "ms"},
	{"serve.hit_submit_pct", "%"},
	{"serve.results.hit_ratio", "ratio"},
	{"serve.results.evictions", "count"},
	{"serve.rawmemo.hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"fabric.submits", "count"},
	{"fabric.submit_ms.p50", "ms"},
	{"fabric.submit_ms.p99", "ms"},
	{"fabric.first_result_ms.p50", "ms"},
	{"fabric.overhead_ms.p50", "ms"},
	{"fabric.queue_depth.max", "count"},
	{"fabric.requeues", "count"},
	{"client.latency_ms.p99", "ms"},
	{"client.capacity_per_s", "1/s"},
	{"client.overhead_ms.cold.p50", "ms"},
	{"client.conn_wait_ms.p99", "ms"},
	{"gen.late_ms.p99", "ms"},
	{"breakdown.cold.gen_late_ms", "ms"},
	{"breakdown.cold.conn_wait_ms", "ms"},
	{"breakdown.cold.loopback_ms", "ms"},
	{"breakdown.cold.serve_self_ms", "ms"},
	{"breakdown.cold.fabric_submit_ms", "ms"},
	{"breakdown.cold.unattributed_ms", "ms"},
	{"breakdown.cold.client_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the benchmark prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as stored by --out and read by compare.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	report
}

// run carries one workload's checks and metrics through its phases.
type run struct {
	workload string
	seed     uint64
	stdout   io.Writer
	stderr   io.Writer

	attempted, failed int64
	metrics           map[string]metric
	// sweepRef is the first sweep output of the process: every later
	// sweep, traced or not, must reproduce it byte for byte.
	sweepRef []byte
}

// check counts one checked operation, reporting the first few failures.
func (r *run) check(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintf(r.stderr, "%s: check failed: %v\n", r.workload, err)
	}
	return false
}

// put records a metric and prints it as "workload metric value unit", with
// the sample count it rests on when there is one.
func (r *run) put(name string, v float64, unit string, n int) {
	v = finite(v)
	r.metrics[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%s %s %s %s", r.workload, name, strconv.FormatFloat(v, 'g', 6, 64), unit)
	if n > 0 {
		line += fmt.Sprintf(" n=%d", n)
	}
	fmt.Fprintln(r.stdout, line)
}

// finite maps a non-finite value, such as a percentile over failed
// requests, to the largest float so it stays JSON-encodable and compares
// as worst.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// putPct records the nearest-rank p-th percentile of xs. Without samples it
// records nothing, and the report reads 0.
func (r *run) putPct(name string, xs []float64, p float64, unit string) {
	if len(xs) == 0 {
		return
	}
	r.put(name, percentile(xs, p), unit, len(xs))
}

func (r *run) putE2E(m measurement) {
	r.put("setup_s", median(m.setup), "s", len(m.setup))
	r.put("rss_mb", m.rss, "MB", 0)
	r.put("p50_ms", percentile(m.lat, 50), "ms", len(m.lat))
}

// sampleRSS samples the process's resident memory every 10 ms until the
// returned function is called, which returns the mean in MB. Each workload
// runs in a process of its own, so this is the workload's memory. The
// mean over the timed phase is steadier than the peak, which swings with
// the garbage collector's timing.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	mean := make(chan float64)
	go func() {
		total, n := 0.0, 0
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := residentMB(); err == nil {
				total += mb
				n++
			}
			select {
			case <-done:
				mean <- total / float64(max(n, 1))
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-mean
	}
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all, figures, sweep, serve-cold or serve-mixed")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory for <workload>.trace.jsonl span files")
	out := fs.String("out", "", "append each run's result as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || !(*seconds > 0) {
		fmt.Fprintln(stderr, "benchmark: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *traceDir, *out, stdout, stderr)
	}
	for _, w := range workloads {
		if w.name != *name {
			continue
		}
		rep, err := runWorkload(w, *seed, *seconds, *trace == 1, *traceDir, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, record{Workload: w.name, Seed: *seed, Trace: *trace == 1, report: rep}); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rep.Correct {
			return 1
		}
		return 0
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
	return 2
}

// runWorkload runs one workload in this process. Untraced, it reports the
// end-to-end metrics. Traced, it runs half the time untraced and half
// traced, and reports the per-layer metrics plus the tracing overhead; the
// untraced half's end-to-end metrics print too, but stay out of the report.
func runWorkload(w workload, seed uint64, seconds float64, traced bool, traceDir string, stdout, stderr io.Writer) (report, error) {
	r := &run{workload: w.name, seed: seed, stdout: stdout, stderr: stderr, metrics: map[string]metric{}}
	defs := endToEnd
	if !traced {
		m, err := w.run(r, seconds, nil)
		if err != nil {
			return report{}, err
		}
		r.putE2E(m)
	} else {
		plain, err := w.run(r, seconds/2, nil)
		if err != nil {
			return report{}, err
		}
		r.putE2E(plain)
		tr := newTracer()
		m, err := w.run(r, seconds/2, tr)
		if err != nil {
			return report{}, err
		}
		base := percentile(plain.lat, 50)
		r.put("trace_overhead_pct", 100*(percentile(m.lat, 50)-base)/base, "%", 0)
		if err := tr.write(traceDir, w.name); err != nil {
			return report{}, err
		}
		defs = perLayer
		for name := range r.metrics {
			if !hasMetric(perLayer, name) {
				delete(r.metrics, name)
			}
		}
	}
	for _, d := range defs {
		if _, ok := r.metrics[d.name]; !ok {
			r.metrics[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
	return report{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// runAll runs every workload in a fresh child process of this binary, so
// each one's peak memory and garbage-collector state are its own, and
// prints a summary line over all of them.
func runAll(seed uint64, seconds float64, trace int, traceDir, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	total := report{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--trace-dir", traceDir}
		if out != "" {
			args = append(args, "--out", out)
		}
		last, err := runChild(self, args, stdout, stderr)
		var rep report
		if err == nil {
			err = json.Unmarshal([]byte(last), &rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
			total.Correct = false
			continue
		}
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, v := range rep.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		code = 1
	}
	return code
}

// runChild runs the harness with args, echoing its output, and returns
// its last output line.
func runChild(self string, args []string, stdout, stderr io.Writer) (string, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(stdout, last)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || last == "" {
			return "", err
		}
		// A failed check exits 1 after printing its result line.
	}
	return last, scanErr
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("results file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("results file: %w", err)
	}
	return f.Close()
}
