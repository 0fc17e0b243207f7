// Command optimal computes the average-cost-optimal allocation policy by
// relative value iteration on the truncated two-class chain (the MDP-based
// numerical approach of [7] that the paper references in Section 5), then
// compares it against IF, EF and the best threshold policy.
//
// With muI >= muE it confirms Theorem 5 (the optimum equals IF). With
// muI < muE it explores the paper's open question, printing the switching
// structure of the optimal policy.
//
// Usage:
//
//	optimal -k 4 -rho 0.8 -muI 0.4 -muE 1.0
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/ctmc"
	"repro/internal/mdp"
	"repro/internal/policy"
	"repro/internal/queueing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("optimal: ")
	var (
		k    = flag.Int("k", 4, "number of servers")
		rho  = flag.Float64("rho", 0.8, "system load (lambdaI=lambdaE)")
		muI  = flag.Float64("muI", 0.4, "inelastic service rate")
		muE  = flag.Float64("muE", 1.0, "elastic service rate")
		capN = flag.Int("cap", 100, "truncation cap per dimension")
		show = flag.Int("show", 12, "rows/cols of the decision table to print")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *k < 1 {
		log.Fatalf("-k must be >= 1 (got %d)", *k)
	}
	if !(*rho > 0 && *rho < 1) {
		log.Fatalf("-rho must be in (0, 1) (got %g)", *rho)
	}
	if *muI <= 0 || *muE <= 0 {
		log.Fatalf("service rates must be positive (got muI=%g, muE=%g)", *muI, *muE)
	}
	if *capN < 2 {
		log.Fatalf("-cap must be >= 2 (got %d)", *capN)
	}
	if *show < 0 || *show > *capN {
		log.Fatalf("-show must be in [0, %d] (got %d)", *capN, *show)
	}

	m := queueing.ForLoad(*k, *rho, *muI, *muE)
	fmt.Printf("system: k=%d rho=%.3f muI=%g muE=%g\n\n", *k, *rho, *muI, *muE)

	opt, err := mdp.Solve(mdp.Config{Model: m, CapI: *capN, CapE: *capN, Tol: 1e-11})
	if err != nil {
		log.Fatal(err)
	}
	solve := func(name string) ctmc.Perf {
		rule, err := policy.CountRule(name, m.MuI, m.MuE)
		if err != nil {
			log.Fatal(err)
		}
		p, err := ctmc.SolvePolicy(m, rule, *capN, *capN)
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	ifPerf := solve("IF")
	efPerf := solve("EF")
	bestThresh, bestCap := efPerf.MeanT, 0
	for c := 1; c <= *k; c++ {
		if p := solve(fmt.Sprintf("THRESH:%d", c)); p.MeanT < bestThresh {
			bestThresh, bestCap = p.MeanT, c
		}
	}

	fmt.Printf("mean response times (exact, truncated chain %dx%d):\n", *capN, *capN)
	fmt.Printf("  optimal (MDP):       E[T] = %.6f   (%d iterations)\n", opt.MeanT, opt.Iters)
	fmt.Printf("  Inelastic-First:     E[T] = %.6f   (+%.2f%% vs optimal)\n",
		ifPerf.MeanT, 100*(ifPerf.MeanT-opt.MeanT)/opt.MeanT)
	fmt.Printf("  Elastic-First:       E[T] = %.6f   (+%.2f%% vs optimal)\n",
		efPerf.MeanT, 100*(efPerf.MeanT-opt.MeanT)/opt.MeanT)
	fmt.Printf("  best threshold (%d): E[T] = %.6f   (+%.2f%% vs optimal)\n",
		bestCap, bestThresh, 100*(bestThresh-opt.MeanT)/opt.MeanT)
	fmt.Printf("  optimal matches IF in %.1f%% of core states\n\n", 100*opt.MatchesIF())

	fmt.Printf("optimal inelastic allocation a*(i, j) (rows i = inelastic count,\ncols j = elastic count; elastic jobs receive k - a*):\n\n     j:")
	for j := 0; j < *show; j++ {
		fmt.Printf("%3d", j)
	}
	fmt.Println()
	for i := 0; i <= *show; i++ {
		fmt.Printf("i=%3d ", i)
		for j := 0; j < *show; j++ {
			fmt.Printf("%3d", opt.AllocI[i][j])
		}
		fmt.Println()
	}
	if *muI < *muE {
		fmt.Println("\nmuI < muE: the open regime. Note the state-dependent switching —")
		fmt.Println("the optimal policy is neither IF (full rows of min(i,k)) nor EF")
		fmt.Println("(all zeros when j > 0).")
	} else {
		fmt.Println("\nmuI >= muE: Theorem 5 territory — the table reproduces IF.")
	}
}
