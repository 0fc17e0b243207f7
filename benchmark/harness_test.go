package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/exp"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.csv and testdata/sweep_seed1.json from the current code")

// TestUpdateReferences rewrites the output references when run with
// -update; otherwise it only checks they load.
func TestUpdateReferences(t *testing.T) {
	if !*update {
		if _, err := parseFigures(figuresCSV); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(sweepSeed1) {
			t.Fatal("testdata/sweep_seed1.json is not JSON")
		}
		return
	}
	ctx := context.Background()
	rows, err := figureSet(ctx, exp.Options{Backend: exp.PoolBackend{Workers: workers}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeFigures(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/figures.csv", buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := loadSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sweepOnce(ctx, sw, exp.Options{Backend: exp.PoolBackend{Workers: workers}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/sweep_seed1.json", out, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{40, 15, 50, 35, 20}
	for _, c := range []struct{ p, want float64 }{{1, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	// A failed operation is +Inf: it misses every limit once it is in the
	// tail the percentile reads.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFail, 50); got != 2 {
		t.Errorf("p50 with one failure = %g, want 2", got)
	}
	if got := percentile(withFail, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with one failure = %g, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestPutPrintsSampleCount(t *testing.T) {
	var out bytes.Buffer
	r := &run{workload: "w", stdout: &out, metrics: map[string]metric{}}
	r.putPct("p50_ms", []float64{3, 1, 2}, 50, "ms")
	r.put("rss_mb", 12.5, "MB", 0)
	r.putPct("empty", nil, 50, "ms")
	if got, want := out.String(), "w p50_ms 2 ms n=3\nw rss_mb 12.5 MB\n"; got != want {
		t.Fatalf("printed %q, want %q", got, want)
	}
	if _, ok := r.metrics["empty"]; ok {
		t.Error("a percentile of no samples was recorded")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) with the default exclusive method.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	a := poissonSchedule(rng(7, streamSchedule), 100, 5)
	b := poissonSchedule(rng(7, streamSchedule), 100, 5)
	c := poissonSchedule(rng(8, streamSchedule), 100, 5)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	if len(a) < 400 || len(a) > 600 {
		t.Errorf("%d sends in 5 s at 100/s", len(a))
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 5 {
		t.Error("schedule not increasing within the phase")
	}

	draw := func(seed uint64) []int {
		pick := zipfPicker(rng(seed, streamPicks), zipfS, catalogSize)
		out := make([]int, 5000)
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	x, y := draw(3), draw(3)
	if !slices.Equal(x, y) {
		t.Fatal("one seed gave two Zipf sequences")
	}
	counts := make([]int, catalogSize)
	for _, i := range x {
		if i < 0 || i >= catalogSize {
			t.Fatalf("pick %d outside the catalog", i)
		}
		counts[i]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("popularity not decreasing: %d, %d, %d", counts[0], counts[1], counts[10])
	}
	if specSeed(1, streamSpecSeeds, 0) == specSeed(1, streamSpecSeeds, 1) || specSeed(1, streamSpecSeeds, 0) == specSeed(2, streamSpecSeeds, 0) {
		t.Error("spec seeds collide")
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 20, End: 40},
		{Start: 10, End: 30},  // overlaps the first: the union counts once
		{Start: 90, End: 120}, // clipped to the parent
		{Start: -5, End: 2},   // clipped to the parent
		{Start: 25, End: 35},  // inside the first two
	}
	if got := selfTime(parent, children); got != 100-2-30-10 {
		t.Fatalf("self time %d, want 58", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", base, base, false, "within bound"},
		{"slower", base, scale(base, 1.2), false, "worse"},
		{"faster", base, scale(base, 0.8), false, "better"},
		{"small move", base, scale(base, 1.05), false, "within bound"},
		{"higher is better", base, scale(base, 1.2), true, "better"},
		{"lower throughput", base, scale(base, 0.8), true, "worse"},
		{"wide spread", base, wide, false, "unresolved"},
		{"wide spread, every run better", wide, scale(wide, 0.3), false, "better"},
		{"missing", base, nil, false, "missing"},
	} {
		if got := verdict(c.a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestVariantBodyIsSameSpec(t *testing.T) {
	sw := smallSpec("cat", 42, "IF", "EF")
	body := specBody(sw)
	r := rng(1, streamPicks)
	seen := map[string]bool{string(body): true}
	for range 20 {
		v := variantBody(body, r)
		if seen[string(v)] {
			t.Fatalf("variant repeats earlier bytes: %s", v)
		}
		seen[string(v)] = true
		var got exp.Sweep
		if err := json.Unmarshal(v, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(specBody(got), body) {
			t.Fatalf("variant %s is another spec", v)
		}
	}
}

// TestSmoke runs every workload briefly, traced (which runs an untraced
// half first), and checks that every metric BENCHMARK.json names prints
// with its unit and that every output check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []endToEndDef `json:"end_to_end"`
		PerLayer []endToEndDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	defer func(n int) { setups = n }(setups)
	setups = 1
	for _, w := range workloads {
		var out, errOut bytes.Buffer
		rep, err := runWorkload(w, 1, 0.2, true, t.TempDir(), &out, &errOut)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: %d of %d checks failed:\n%s", w.name, rep.Failed, rep.Attempted, errOut.String())
		}
		for _, d := range bench.PerLayer {
			if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s reported as %+v, want unit %s", w.name, d.Name, m, d.Unit)
			}
		}
		if len(rep.Metrics) != len(bench.PerLayer) {
			t.Errorf("%s: reported %d per-layer metrics, BENCHMARK.json names %d", w.name, len(rep.Metrics), len(bench.PerLayer))
		}
		for _, d := range bench.EndToEnd {
			if !strings.Contains(out.String(), w.name+" "+d.Name+" ") || !hasMetric(endToEnd, d.Name) {
				t.Errorf("%s: end-to-end metric %s not printed", w.name, d.Name)
			}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 4 && f[1] == d.Name && f[3] != d.Unit {
					t.Errorf("%s: %s printed in %s, want %s", w.name, d.Name, f[3], d.Unit)
				}
			}
		}
	}
}
