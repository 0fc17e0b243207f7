// Quickstart: analyze and simulate a 4-server cluster shared by elastic and
// inelastic jobs, see why Inelastic-First is the right policy when
// inelastic jobs are smaller on average (Theorem 5 of Berg et al.,
// SPAA 2020), and sweep the load axis in parallel with internal/exp.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/internal/mrt"
	"repro/internal/policy"
	"repro/internal/queueing"
)

func main() {
	// A cluster with k=4 servers at 70% load. Inelastic jobs are twice as
	// small on average (muI = 2, muE = 1) — the paper's "common case".
	sys := queueing.ForLoad(4, 0.7, 2.0, 1.0)
	fmt.Printf("cluster: k=%d, rho=%.2f, muI=%g, muE=%g\n\n", sys.K, sys.Rho(), sys.MuI, sys.MuE)

	// Step 1 — exact analysis. The busy-period transformation + matrix
	// analytic pipeline of Section 5 computes mean response times for both
	// headline policies in milliseconds, no simulation required.
	ifRes, efRes, err := mrt.Analyze(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("matrix-analytic mean response times:")
	fmt.Printf("  Inelastic-First: E[T] = %.4f\n", ifRes.T)
	fmt.Printf("  Elastic-First:   E[T] = %.4f\n", efRes.T)
	fmt.Printf("  IF advantage:    %.1f%%\n\n", 100*(efRes.T-ifRes.T)/efRes.T)

	// Step 2 — the same comparison by discrete-event simulation, one policy
	// at a time through the model-level API. Fixed seed: rerunning this
	// program reproduces these numbers exactly.
	opts := exp.SimOptions{Seed: 42, WarmupJobs: 20_000, MaxJobs: 400_000}
	for _, name := range []string{"IF", "EF", "FCFS", "EQUI"} {
		p, err := policy.ByName(name, sys.MuI, sys.MuE)
		if err != nil {
			log.Fatal(err)
		}
		res := exp.Simulate(sys, p, opts)
		fmt.Printf("  simulated %-5s E[T] = %.4f (E[T_I]=%.4f, E[T_E]=%.4f)\n",
			name+":", res.MeanT, res.MeanTI, res.MeanTE)
	}
	fmt.Println("\nTheorem 5: with muI >= muE no policy beats IF — and none of these do.")

	// Step 3 — scale up with the experiment layer. A Sweep declares a
	// parameter grid (here: the load axis under both policies, 2
	// replications each) and exp.Run dispatches every (cell, replication)
	// across a worker pool. Seeds derive from cell identity, so the output
	// is bit-identical no matter how many workers (or re-runs) it takes.
	sweep := exp.Sweep{
		Name: "quickstart-rho-sweep",
		Grid: exp.Grid{
			K:        []int{4},
			Rho:      []float64{0.5, 0.7, 0.9},
			MuI:      []float64{2},
			MuE:      []float64{1},
			Policies: []string{"IF", "EF"},
		},
		Reps:     2,
		BaseSeed: 42,
		Warmup:   20_000,
		Jobs:     200_000,
	}
	rs, err := exp.Run(context.Background(), sweep, exp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nparallel load sweep (exp.Run, 2 replications per cell):")
	fmt.Println("  rho   E[T] IF (±95%)        E[T] EF (±95%)")
	for i := 0; i < len(rs.Cells); i += 2 {
		ifCell, efCell := rs.Cells[i], rs.Cells[i+1]
		fmt.Printf("  %.1f   %.4f (±%.4f)   %.4f (±%.4f)\n",
			ifCell.Cell.Rho, ifCell.ET, ifCell.ETCI, efCell.ET, efCell.ETCI)
	}
	fmt.Println("\nIF's advantage widens with load — Figure 5's story, reproduced in one sweep.")
}
