package exp_test

import (
	"context"
	"fmt"

	"repro/internal/exp"
)

// ExampleRun declares a 3-point load sweep and executes it on the worker
// pool. Seeds derive from cell identity, so the printed numbers are
// identical no matter how many workers run the sweep.
func ExampleRun() {
	sweep := exp.Sweep{
		Name: "rho-sweep",
		Grid: exp.Grid{
			K:        []int{4},
			Rho:      []float64{0.5, 0.7, 0.9},
			MuI:      []float64{2},
			MuE:      []float64{1},
			Policies: []string{"IF"},
		},
		Reps:     2,
		BaseSeed: 1,
		Warmup:   2_000,
		Jobs:     30_000,
	}
	rs, err := exp.Run(context.Background(), sweep, exp.Options{Backend: exp.PoolBackend{Workers: 4}})
	if err != nil {
		panic(err)
	}
	for _, cr := range rs.Cells {
		fmt.Printf("rho=%.1f E[T]=%.3f\n", cr.Cell.Rho, cr.ET)
	}
	// Output:
	// rho=0.5 E[T]=0.512
	// rho=0.7 E[T]=0.722
	// rho=0.9 E[T]=1.662
}

// ExampleTheorem6 reproduces the counterexample of Section 4.3.
func ExampleTheorem6() {
	res, err := exp.Theorem6(1.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("IF=%.6f EF=%.6f\n", res.IFTotal, res.EFTotal)
	// Output: IF=2.916667 EF=2.750000
}
