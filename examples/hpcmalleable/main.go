// HPC malleable-jobs scenario (Section 1.3): malleable (elastic) jobs are
// SMALLER on average than rigid (inelastic) ones — the muI < muE regime
// where Inelastic-First loses its optimality (Theorem 6) and Elastic-First
// can win. The example sweeps the threshold-policy family between the two
// extremes and locates the best interior policy, illustrating the paper's
// open question about this regime.
package main

import (
	"fmt"
	"log"

	"repro/internal/ctmc"
	"repro/internal/mrt"
	"repro/internal/policy"
	"repro/internal/queueing"
)

func main() {
	const k = 8
	// Rigid solver jobs are 4x larger than malleable jobs; high load.
	sys := queueing.ForLoad(k, 0.9, 0.25, 1.0)
	fmt.Printf("HPC cluster: k=%d, rho=%.2f, rigid mean size %.1f, malleable mean size %.1f\n\n",
		k, sys.Rho(), 1/sys.MuI, 1/sys.MuE)

	ifRes, efRes, err := mrt.Analyze(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix-analytic: E[T_IF] = %.3f, E[T_EF] = %.3f -> EF wins by %.1f%%\n\n",
		ifRes.T, efRes.T, 100*(ifRes.T-efRes.T)/ifRes.T)

	fmt.Println("threshold-policy sweep (cap = max servers for rigid jobs while malleable jobs wait):")
	fmt.Println("  cap   E[T] (exact chain)")
	bestCap, bestT := -1, ifRes.T*10
	for cap := 0; cap <= k; cap++ {
		rule, err := policy.CountRule(fmt.Sprintf("THRESH:%d", cap), sys.MuI, sys.MuE)
		if err != nil {
			log.Fatal(err)
		}
		perf, err := ctmc.AutoSolvePolicy(sys, rule, 1e-9)
		if err != nil {
			log.Fatal(err)
		}
		marker := ""
		if cap == 0 {
			marker = "  (= EF)"
		}
		if cap == k {
			marker = "  (= IF)"
		}
		fmt.Printf("  %2d   %8.4f%s\n", cap, perf.MeanT, marker)
		if perf.MeanT < bestT {
			bestT, bestCap = perf.MeanT, cap
		}
	}
	fmt.Printf("\nbest threshold: cap=%d with E[T]=%.4f\n", bestCap, bestT)
	fmt.Println("The optimal policy for muI < muE is open (Section 6); interior")
	fmt.Println("thresholds can beat both EF and IF, which bounds how far either")
	fmt.Println("headline policy is from optimal within this family.")
}
