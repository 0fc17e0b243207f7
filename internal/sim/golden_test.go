package sim_test

// Golden traces on fixed seeds. Two sets live under testdata/:
//
//   - golden_inc_*.json pin the engine bit for bit. Regenerate them with
//
//     go test ./internal/sim -run TestGoldenIncremental -update
//
//     only when an intentional semantic change to the engine is being made,
//     and say so loudly in the change description.
//   - golden_trace_*.json and golden_run_cells.json are the frozen output of
//     the retired O(n)-per-event rebuild engine (and, before it, of the
//     pre-unification two-class simulator). They are the independent
//     reference the engine is held to and are never rewritten: -update
//     leaves them alone.

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the engine's golden files (golden_inc_*) from the current engine")

// goldenPolicies are the policies frozen in the trace goldens. THRESH:2 and
// EQUI exercise fractional allocations; DEFER exercises idling; SRPT
// exercises size-aware ordering.
var goldenPolicies = []string{"IF", "EF", "FCFS", "EQUI", "DEFER", "SRPT", "THRESH:2"}

// hex encodes a float64 exactly (bit-for-bit) as a parseable string.
func hex(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

type goldenCompletion struct {
	ID       int    `json:"id"`
	Class    int    `json:"class"`
	Finished string `json:"finished"`
}

type goldenTrace struct {
	Policy      string             `json:"policy"`
	Completions []goldenCompletion `json:"completions"`
	MeanT       string             `json:"meanT"`
	MeanTI      string             `json:"meanTI"`
	MeanTE      string             `json:"meanTE"`
	MeanN       string             `json:"meanN"`
	MeanW       string             `json:"meanW"`
	Utilization string             `json:"utilization"`
	Count       int64              `json:"count"`
}

// goldenTracePrefix bounds the per-completion detail kept in the files; the
// aggregate statistics still cover the full run.
const goldenTracePrefix = 256

func computeGoldenTrace(t *testing.T, polName string) goldenTrace {
	t.Helper()
	model := workload.ModelForLoad(4, 0.8, 1.5, 1.0)
	pol, err := policy.ByName(polName, model.MuI, model.MuE)
	if err != nil {
		t.Fatal(err)
	}
	trace := model.Trace(11, 3000)
	sys := sim.NewClassSystem(4, sim.TwoClassSpecs(), pol)
	g := goldenTrace{Policy: polName}
	record := func(done []sim.Completion) {
		for _, c := range done {
			if len(g.Completions) < goldenTracePrefix {
				g.Completions = append(g.Completions, goldenCompletion{
					ID: c.Job.ID, Class: int(c.Job.Class), Finished: hex(c.Finished),
				})
			}
		}
	}
	for _, a := range trace {
		record(sys.AdvanceTo(a.Time))
		sys.Arrive(a)
	}
	record(sys.Drain(math.Inf(1)))
	m := sys.Metrics()
	g.MeanT = hex(m.MeanResponseAll())
	g.MeanTI = hex(m.MeanResponse(sim.Inelastic))
	g.MeanTE = hex(m.MeanResponse(sim.Elastic))
	g.MeanN = hex(m.MeanJobsAll())
	g.MeanW = hex(m.MeanWorkAll())
	g.Utilization = hex(m.Utilization(4))
	g.Count = m.TotalCompletions()
	return g
}

func goldenPath(name string) string {
	return filepath.Join("testdata", name)
}

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update): %v", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}

// diffGoldenTrace compares a trace against a golden one: counts and
// completion ID/class sequences exactly, every hex-encoded float through
// same.
func diffGoldenTrace(t *testing.T, got, want goldenTrace, same func(got, want string) bool) {
	t.Helper()
	if got.Count != want.Count {
		t.Fatalf("completions: got %d, want %d", got.Count, want.Count)
	}
	for _, pair := range [][3]string{
		{"MeanT", got.MeanT, want.MeanT},
		{"MeanTI", got.MeanTI, want.MeanTI},
		{"MeanTE", got.MeanTE, want.MeanTE},
		{"MeanN", got.MeanN, want.MeanN},
		{"MeanW", got.MeanW, want.MeanW},
		{"Utilization", got.Utilization, want.Utilization},
	} {
		if !same(pair[1], pair[2]) {
			t.Errorf("%s: got %s, want %s", pair[0], pair[1], pair[2])
		}
	}
	if len(got.Completions) != len(want.Completions) {
		t.Fatalf("trace prefix length: got %d, want %d", len(got.Completions), len(want.Completions))
	}
	for i, w := range want.Completions {
		g := got.Completions[i]
		if g.ID != w.ID || g.Class != w.Class || !same(g.Finished, w.Finished) {
			t.Fatalf("completion %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestGoldenTwoClassTraces replays a frozen 3000-arrival trace under each
// policy against the retired rebuild engine's output. The rebuild engine
// re-derived every completion time from freshly depleted work at every
// event, so it rounded differently: completion ID/class sequences and
// counts must match exactly, completion times and aggregate statistics to
// equivTol relative.
func TestGoldenTwoClassTraces(t *testing.T) {
	within := func(got, want string) bool {
		g, errG := strconv.ParseFloat(got, 64)
		w, errW := strconv.ParseFloat(want, 64)
		return errG == nil && errW == nil && closeRel(g, w)
	}
	for _, polName := range goldenPolicies {
		t.Run(polName, func(t *testing.T) {
			var want goldenTrace
			readGolden(t, "golden_trace_"+sanitize(polName)+".json", &want)
			diffGoldenTrace(t, computeGoldenTrace(t, polName), want, within)
		})
	}
}

// TestGoldenIncrementalTraces replays the same frozen trace and demands
// bit-identical completion sequences and aggregate statistics against the
// engine's own golden set.
func TestGoldenIncrementalTraces(t *testing.T) {
	exact := func(got, want string) bool { return got == want }
	for _, polName := range goldenPolicies {
		t.Run(polName, func(t *testing.T) {
			got := computeGoldenTrace(t, polName)
			name := "golden_inc_trace_" + sanitize(polName) + ".json"
			if *update {
				writeGolden(t, name, got)
				return
			}
			var want goldenTrace
			readGolden(t, name, &want)
			diffGoldenTrace(t, got, want, exact)
		})
	}
}

// runCell is one frozen cell of the warmup/measurement driver goldens.
type runCell struct {
	Policy      string `json:"policy"`
	MuI         string `json:"muI"`
	MeanT       string `json:"meanT"`
	MeanTI      string `json:"meanTI"`
	MeanTE      string `json:"meanTE"`
	MeanN       string `json:"meanN"`
	Completions int64  `json:"completions"`
}

// computeRunCells runs sim.Run — the driver exp and the cmds use — with a
// warmup budget on the stochastic two-class model.
func computeRunCells(t *testing.T) []runCell {
	t.Helper()
	var got []runCell
	for _, muI := range []float64{0.5, 2.0} {
		for _, polName := range []string{"IF", "EF"} {
			model := workload.ModelForLoad(4, 0.7, muI, 1.0)
			pol, err := policy.ByName(polName, model.MuI, model.MuE)
			if err != nil {
				t.Fatal(err)
			}
			res := sim.Run(sim.RunConfig{
				K: 4, Policy: pol, Source: model.Source(7),
				WarmupJobs: 1000, MaxJobs: 10_000,
			})
			got = append(got, runCell{
				Policy: polName, MuI: hex(muI),
				MeanT: hex(res.MeanT), MeanTI: hex(res.MeanTI), MeanTE: hex(res.MeanTE),
				MeanN: hex(res.MeanN), Completions: res.Completions,
			})
		}
	}
	return got
}

func diffRunCells(t *testing.T, got []runCell, name string) {
	t.Helper()
	var want []runCell
	readGolden(t, name, &want)
	if len(got) != len(want) {
		t.Fatalf("cells: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestGoldenRunPipeline holds the driver to the rebuild engine's frozen
// cells. At this load the two engines' roundings happen to coincide on
// every reported statistic, so the reference is met bit for bit.
func TestGoldenRunPipeline(t *testing.T) {
	diffRunCells(t, computeRunCells(t), "golden_run_cells.json")
}

// TestGoldenIncrementalRunPipeline freezes the same driver output in the
// engine's own golden set.
func TestGoldenIncrementalRunPipeline(t *testing.T) {
	const name = "golden_inc_run_cells.json"
	got := computeRunCells(t)
	if *update {
		writeGolden(t, name, got)
		return
	}
	diffRunCells(t, got, name)
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'A' && r <= 'Z', r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
