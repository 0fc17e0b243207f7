package exp

// End-to-end coverage for the class-mix sweep axis (ISSUE 3 acceptance):
// a >= 3-class partial-elasticity scenario must run through the declarative
// sweep pipeline — grid expansion, worker pool, caching keys, per-class
// aggregation and CSV emission — on the unified N-class engine.

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestMixSweepEndToEnd(t *testing.T) {
	sw := Sweep{
		Name: "mix-e2e",
		Grid: Grid{
			K:        []int{8},
			Rho:      []float64{0.6},
			Mixes:    []string{"threeclass", "partialelastic"},
			Policies: []string{"LFF", "EQUI"},
		},
		Reps: 2, Warmup: 2_000, Jobs: 20_000,
	}
	rs, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != 4 {
		t.Fatalf("mix sweep produced %d cells, want 4", len(rs.Cells))
	}
	for _, cr := range rs.Cells {
		if cr.Cell.Mix == "" {
			t.Fatalf("cell %v lost its mix", cr.Cell)
		}
		if math.IsNaN(cr.ET) || cr.ET <= 0 {
			t.Fatalf("cell %v: bad E[T] %v", cr.Cell, cr.ET)
		}
		wantClasses := 3
		if cr.Cell.Mix == "partialelastic" {
			wantClasses = 4
		}
		if len(cr.ETPerClass) != wantClasses {
			t.Fatalf("cell %v: %d per-class aggregates, want %d", cr.Cell, len(cr.ETPerClass), wantClasses)
		}
		for c, v := range cr.ETPerClass {
			if math.IsNaN(v) || v <= 0 {
				t.Fatalf("cell %v class %d: bad per-class E[T] %v", cr.Cell, c, v)
			}
		}
	}
	var csv strings.Builder
	if err := rs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "threeclass") || !strings.Contains(csv.String(), ";") {
		t.Fatalf("mix CSV missing mix name or per-class column:\n%.400s", csv.String())
	}
}

// TestMixSweepDeterminism: mix cells must be bit-identical across worker
// counts, like every other cell kind.
func TestMixSweepDeterminism(t *testing.T) {
	sw := Sweep{
		Name: "mix-det",
		Grid: Grid{
			K:        []int{8},
			Rho:      []float64{0.5},
			Mixes:    []string{"cappedladder"},
			Policies: []string{"LFF"},
		},
		Reps: 2, Warmup: 500, Jobs: 5_000,
	}
	a, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cells[0].ET != b.Cells[0].ET {
		t.Fatalf("mix sweep not deterministic across worker counts: %v vs %v",
			a.Cells[0].ET, b.Cells[0].ET)
	}
	for c := range a.Cells[0].ETPerClass {
		if a.Cells[0].ETPerClass[c] != b.Cells[0].ETPerClass[c] {
			t.Fatalf("per-class aggregate %d differs across worker counts", c)
		}
	}
}

// TestMixPolicyValidation: two-class-only policies are rejected for mix
// cells at validation time, not deep inside a worker.
func TestMixPolicyValidation(t *testing.T) {
	sw := Sweep{
		Name: "mix-bad",
		Grid: Grid{
			K:        []int{8},
			Rho:      []float64{0.5},
			Mixes:    []string{"nonsense"},
			Policies: []string{"LFF"},
		},
		Jobs: 100,
	}
	if _, err := Run(context.Background(), sw, Options{}); err == nil {
		t.Fatal("unknown mix accepted")
	}
	sw.Grid.Mixes = []string{"threeclass"}
	sw.Grid.Scenarios = []string{"mapreduce"}
	if _, err := Run(context.Background(), sw, Options{}); err == nil {
		t.Fatal("Scenarios+Mixes accepted")
	}
	sw.Grid.Scenarios = nil
	for _, pol := range []string{"THRESH:2", "GREEDY", "PRIO:0>1", "PRIO:0>1>2>3", "PRIO:0>0>1>2"} {
		sw.Grid.Policies = []string{pol}
		if _, err := Run(context.Background(), sw, Options{}); err == nil {
			t.Fatalf("two-class-only or non-covering policy %q accepted for a 3-class mix", pol)
		}
	}
	sw.Grid.Policies = []string{"PRIO:2>1>0"}
	sw.Jobs = 2_000
	if _, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 2}}); err != nil {
		t.Fatalf("covering PRIO rejected: %v", err)
	}
}

// TestTwoClassPrioValidation: PRIO orders are validated against the
// two-class preset on classic cells too.
func TestTwoClassPrioValidation(t *testing.T) {
	sw := Sweep{
		Name: "prio-2c",
		Grid: Grid{
			K: []int{4}, Rho: []float64{0.5}, MuI: []float64{1}, MuE: []float64{1},
			Policies: []string{"PRIO:0"},
		},
		Jobs: 100,
	}
	if _, err := Run(context.Background(), sw, Options{}); err == nil {
		t.Fatal("PRIO:0 (never serves class 1) accepted for a two-class cell")
	}
}

// TestMixTailPercentiles covers the ROADMAP "tail metrics on mixes" item:
// a Tail sweep over an N-class mix must report per-class p99 response
// times alongside the means, in the aggregates and in the CSV emitter.
func TestMixTailPercentiles(t *testing.T) {
	sw := Sweep{
		Name: "mix-tail",
		Grid: Grid{
			K:        []int{8},
			Rho:      []float64{0.6},
			Mixes:    []string{"threeclass"},
			Policies: []string{"LFF"},
		},
		Reps: 2, Warmup: 1_000, Jobs: 10_000,
		Tail: true,
	}
	rs, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cr := rs.Cells[0]
	if len(cr.P99PerClass) != 3 {
		t.Fatalf("want 3 per-class p99 aggregates, got %v", cr.P99PerClass)
	}
	if cr.P99 < cr.ET {
		t.Fatalf("p99 %v below the mean %v", cr.P99, cr.ET)
	}
	for c, v := range cr.P99PerClass {
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("class %d: bad p99 %v", c, v)
		}
		if v < cr.ETPerClass[c] {
			t.Fatalf("class %d: p99 %v below its mean %v", c, v, cr.ETPerClass[c])
		}
	}
	var csv strings.Builder
	if err := rs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(csv.String(), "\n", 2)[0]
	if !strings.Contains(header, "p99") || !strings.Contains(header, "p99_per_class") {
		t.Fatalf("CSV header missing tail columns: %s", header)
	}
	row := strings.SplitN(csv.String(), "\n", 3)[1]
	fields := strings.Split(row, ",")
	// The row tail is p99, p99_per_class, quantiles, quantiles_per_class;
	// the quantile columns are empty unless Sweep.TailQuantiles is set.
	if got := fields[len(fields)-4]; got == "" || got == "0.000000" {
		t.Fatalf("CSV p99 column empty: %q (row %s)", got, row)
	}
	if got := strings.Split(fields[len(fields)-3], ";"); len(got) != 3 {
		t.Fatalf("CSV p99_per_class column has %d entries, want 3 (row %s)", len(got), row)
	}
	if fields[len(fields)-2] != "" || fields[len(fields)-1] != "" {
		t.Fatalf("quantile columns not empty without TailQuantiles (row %s)", row)
	}
}
