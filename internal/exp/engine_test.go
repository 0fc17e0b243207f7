package exp

// Sweep-level coverage for the engine's differential oracle and the
// configurable tail-quantile set. TestEngineSweepEquivalence is the
// engine-equivalence CI gate (scripts/ci.sh): a small sweep run on the
// engine's fast paths and again on its dense fallback (SIM_FORCE_DENSE)
// must agree on every count exactly and on every statistic to 1e-9
// relative — the two paths round floating point differently, so the gate
// pins agreement, not byte identity.

import (
	"context"
	"math"
	"strings"
	"testing"
)

const engineTol = 1e-9

func engClose(a, b float64) bool {
	if a == b || (math.IsNaN(a) && math.IsNaN(b)) {
		return true
	}
	diff := math.Abs(a - b)
	return diff <= engineTol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
}

func engineGateSweep() Sweep {
	return Sweep{
		Name: "engine-gate",
		Grid: Grid{
			K:        []int{2},
			Rho:      []float64{0.5, 0.9},
			MuI:      []float64{1, 2},
			MuE:      []float64{1},
			Policies: []string{"IF", "EF", "SRPT", "EQUI"},
		},
		Reps: 2, BaseSeed: 3, Warmup: 200, Jobs: 2000, Tail: true,
	}
}

// diffResultSets diffs two sweep ResultSets cell by cell: identical
// completion counts and rep seeds, statistics within engineTol.
func diffResultSets(t *testing.T, aName, bName string, ra, rb *ResultSet) {
	t.Helper()
	if len(ra.Cells) != len(rb.Cells) {
		t.Fatalf("cell counts differ: %s %d, %s %d", aName, len(ra.Cells), bName, len(rb.Cells))
	}
	for i := range ra.Cells {
		a, b := ra.Cells[i], rb.Cells[i]
		if a.Cell != b.Cell {
			t.Fatalf("cell %d identity differs: %v vs %v", i, a.Cell, b.Cell)
		}
		if a.Completions != b.Completions {
			t.Errorf("cell %v: completions %s %d, %s %d", a.Cell, aName, a.Completions, bName, b.Completions)
		}
		for _, c := range []struct {
			name string
			x, y float64
		}{
			{"ET", a.ET, b.ET}, {"ETI", a.ETI, b.ETI}, {"ETE", a.ETE, b.ETE},
			{"EN", a.EN, b.EN}, {"Util", a.Util, b.Util}, {"P99", a.P99, b.P99},
		} {
			if !engClose(c.x, c.y) {
				t.Errorf("cell %v: %s diverges beyond %g: %s %v, %s %v",
					a.Cell, c.name, engineTol, aName, c.x, bName, c.y)
			}
		}
		for r := range a.Reps {
			if a.Reps[r].Seed != b.Reps[r].Seed {
				t.Errorf("cell %v rep %d: seeds differ (%d vs %d)", a.Cell, r, a.Reps[r].Seed, b.Reps[r].Seed)
			}
			if a.Reps[r].Completions != b.Reps[r].Completions {
				t.Errorf("cell %v rep %d: completions %d vs %d", a.Cell, r, a.Reps[r].Completions, b.Reps[r].Completions)
			}
		}
	}
}

// TestEngineSweepEquivalence runs the gate sweep and re-runs it with
// SIM_FORCE_DENSE set, then diffs the ResultSets: identical completion
// counts, statistics within 1e-9 — the sparse fast paths (EQUI's class
// shares, SRPT's indexed heap, the write-set protocol) must be invisible at
// sweep level compared to the dense fallback. A second grid covers a
// class mix so capped and partially elastic classes cross the gate too.
func TestEngineSweepEquivalence(t *testing.T) {
	grids := []Grid{
		engineGateSweep().Grid,
		{K: []int{4}, Rho: []float64{0.7}, Mixes: []string{"threeclass", "partialelastic", "cappedladder"},
			Policies: []string{"LFF", "EQUI", "SRPT"}},
	}
	for _, grid := range grids {
		sw := engineGateSweep()
		sw.Grid = grid
		rsFast, err := Run(context.Background(), sw, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Setenv("SIM_FORCE_DENSE", "1")
		rsDense, err := Run(context.Background(), sw, Options{})
		t.Setenv("SIM_FORCE_DENSE", "")
		if err != nil {
			t.Fatal(err)
		}
		diffResultSets(t, "sparse", "dense", rsFast, rsDense)
	}
}

// TestTailQuantiles pins the configurable quantile set: values are
// monotone in q, consistent with the p99 field at q=0.99, present per
// class, aggregated into the cell, and emitted by the CSV writer.
func TestTailQuantiles(t *testing.T) {
	sw := Sweep{
		Name: "quantiles",
		Grid: Grid{K: []int{4}, Rho: []float64{0.7}, MuI: []float64{1.5}, MuE: []float64{1}, Policies: []string{"IF"}},
		Reps: 2, BaseSeed: 5, Warmup: 500, Jobs: 10_000,
		Tail: true, TailQuantiles: []float64{0.5, 0.95, 0.99, 0.999},
	}
	rs, err := Run(context.Background(), sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cr := rs.Cells[0]
	if len(cr.Quantiles) != 4 || len(cr.QuantilesPerClass) != 2 {
		t.Fatalf("quantile shapes: got %d overall, %d classes", len(cr.Quantiles), len(cr.QuantilesPerClass))
	}
	for i := 1; i < len(cr.Quantiles); i++ {
		if cr.Quantiles[i] < cr.Quantiles[i-1] {
			t.Fatalf("quantiles not monotone: %v", cr.Quantiles)
		}
	}
	if cr.Quantiles[0] <= 0 {
		t.Fatalf("p50 not positive: %v", cr.Quantiles)
	}
	// The q=0.99 entry and the legacy p99 field sample the same recorder.
	if cr.Quantiles[2] != cr.P99 {
		t.Fatalf("q=0.99 (%v) != p99 (%v)", cr.Quantiles[2], cr.P99)
	}
	for cl, qs := range cr.QuantilesPerClass {
		if len(qs) != 4 || qs[3] < qs[0] {
			t.Fatalf("class %d quantiles malformed: %v", cl, qs)
		}
		if qs[2] != cr.P99PerClass[cl] {
			t.Fatalf("class %d: q=0.99 (%v) != p99 (%v)", cl, qs[2], cr.P99PerClass[cl])
		}
	}
	var csv strings.Builder
	if err := rs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(csv.String(), "\n")
	if !strings.Contains(lines[0], "quantiles,quantiles_per_class") {
		t.Fatalf("CSV header missing quantile columns: %s", lines[0])
	}
	if !strings.Contains(lines[1], "0.5=") || !strings.Contains(lines[1], "0.999=") || !strings.Contains(lines[1], "|") {
		t.Fatalf("CSV row missing quantile groups: %s", lines[1])
	}

	// Quantile validation: out-of-range and non-increasing sets fail fast.
	for _, bad := range [][]float64{{0}, {1}, {0.9, 0.5}, {0.5, 0.5}} {
		b := sw
		b.TailQuantiles = bad
		if _, err := Run(context.Background(), b, Options{}); err == nil {
			t.Fatalf("bad quantile set %v not rejected", bad)
		}
	}
	noTail := sw
	noTail.Tail = false
	if _, err := Run(context.Background(), noTail, Options{}); err == nil {
		t.Fatal("TailQuantiles without Tail not rejected")
	}
}
