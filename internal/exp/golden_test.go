package exp

// Figure-pipeline goldens: small Figure 4/5/6 grids frozen bit-exactly, so
// the engine unification (and any later refactor below this layer) can be
// checked against the pre-refactor pipeline end to end. Regenerate with
//
//	go test ./internal/exp -run TestGoldenFigure -update
//
// only on an intentional semantic change.

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current pipeline")

func hexf(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

type goldenFigures struct {
	Figure4 [][3]string `json:"figure4"` // muI|muE key, TIF, TEF
	Figure5 [][3]string `json:"figure5"` // muI key, TIF, TEF
	Figure6 [][3]string `json:"figure6"` // k key, TIF, TEF
	// The high-load cells, where the R solve runs longest and the IF
	// chain is widest (k+2 = 18 phases at k 16).
	Figure4HighLoad [][3]string `json:"figure4_rho0.9"` // muI|muE key, TIF, TEF
	Figure6HighLoad [][3]string `json:"figure6_rho0.9"` // k key, TIF, TEF
}

func computeGoldenFigures(t *testing.T) goldenFigures {
	t.Helper()
	ctx := context.Background()
	var g goldenFigures
	grid := []float64{0.5, 1.0, 2.0}
	f4, err := Figure4(ctx, 4, 0.7, grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f4 {
		key := hexf(p.MuI) + "|" + hexf(p.MuE)
		g.Figure4 = append(g.Figure4, [3]string{key, hexf(p.TIF), hexf(p.TEF)})
	}
	f5, err := Figure5(ctx, 4, 0.7, grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f5 {
		g.Figure5 = append(g.Figure5, [3]string{hexf(p.MuI), hexf(p.TIF), hexf(p.TEF)})
	}
	f6, err := Figure6(ctx, 0.8, 0.5, 1.0, []int{2, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f6 {
		g.Figure6 = append(g.Figure6, [3]string{strconv.Itoa(p.K), hexf(p.TIF), hexf(p.TEF)})
	}
	f4h, err := Figure4(ctx, 4, 0.9, grid, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f4h {
		key := hexf(p.MuI) + "|" + hexf(p.MuE)
		g.Figure4HighLoad = append(g.Figure4HighLoad, [3]string{key, hexf(p.TIF), hexf(p.TEF)})
	}
	f6h, err := Figure6(ctx, 0.9, 0.5, 1.0, []int{8, 16}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range f6h {
		g.Figure6HighLoad = append(g.Figure6HighLoad, [3]string{strconv.Itoa(p.K), hexf(p.TIF), hexf(p.TEF)})
	}
	return g
}

// TestGoldenFigureCells pins small Figure 4/5/6 grids bit-exactly.
func TestGoldenFigureCells(t *testing.T) {
	got := computeGoldenFigures(t)
	path := filepath.Join("testdata", "golden_figures.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (generate with -update): %v", err)
	}
	var want goldenFigures
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(name string, got, want [][3]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: got %d cells, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s cell %d: got %v, want %v", name, i, got[i], want[i])
			}
		}
	}
	check("figure4", got.Figure4, want.Figure4)
	check("figure5", got.Figure5, want.Figure5)
	check("figure6", got.Figure6, want.Figure6)
	check("figure4_rho0.9", got.Figure4HighLoad, want.Figure4HighLoad)
	check("figure6_rho0.9", got.Figure6HighLoad, want.Figure6HighLoad)
}
