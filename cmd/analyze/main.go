// Command analyze computes mean response times under Inelastic-First and
// Elastic-First with the paper's matrix-analytic pipeline (Section 5 and
// Appendix D), and optionally cross-checks against the exact truncated 2D
// chain.
//
// Usage:
//
//	analyze -k 4 -rho 0.9 -muI 0.5 -muE 1.0 [-exact]
//	analyze -k 4 -lambdaI 1.2 -lambdaE 1.2 -muI 0.5 -muE 1.0
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/ctmc"
	"repro/internal/mrt"
	"repro/internal/policy"
	"repro/internal/queueing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")
	var (
		k       = flag.Int("k", 4, "number of servers")
		rho     = flag.Float64("rho", 0, "system load (sets lambdaI=lambdaE); overrides -lambdaI/-lambdaE")
		lambdaI = flag.Float64("lambdaI", 0, "inelastic arrival rate")
		lambdaE = flag.Float64("lambdaE", 0, "elastic arrival rate")
		muI     = flag.Float64("muI", 1, "inelastic service rate")
		muE     = flag.Float64("muE", 1, "elastic service rate")
		exact   = flag.Bool("exact", false, "also solve the exact truncated 2D chain")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *k < 1 {
		log.Fatalf("-k must be >= 1 (got %d)", *k)
	}
	if *muI <= 0 || *muE <= 0 {
		log.Fatalf("service rates must be positive (got muI=%g, muE=%g)", *muI, *muE)
	}

	var s queueing.Model
	switch {
	case *rho != 0:
		if !(*rho > 0 && *rho < 1) {
			log.Fatalf("-rho must be in (0, 1) (got %g)", *rho)
		}
		s = queueing.ForLoad(*k, *rho, *muI, *muE)
	case *lambdaI > 0 && *lambdaE > 0:
		s = queueing.Model{K: *k, LambdaI: *lambdaI, LambdaE: *lambdaE, MuI: *muI, MuE: *muE}
	default:
		log.Fatal("specify either -rho in (0, 1) or both -lambdaI > 0 and -lambdaE > 0")
	}
	if s.Rho() >= 1 {
		log.Fatalf("system is unstable: rho = %.4f >= 1", s.Rho())
	}

	fmt.Printf("system: k=%d lambdaI=%.4f lambdaE=%.4f muI=%g muE=%g rho=%.4f\n",
		s.K, s.LambdaI, s.LambdaE, s.MuI, s.MuE, s.Rho())

	ifRes, efRes, err := mrt.Analyze(s)
	if err != nil {
		log.Fatalf("analysis failed: %v", err)
	}
	fmt.Printf("\nmatrix-analytic results (3-moment busy-period fit):\n")
	fmt.Printf("  IF: E[T]=%.6f  E[T_I]=%.6f  E[T_E]=%.6f\n", ifRes.T, ifRes.TI, ifRes.TE)
	fmt.Printf("  EF: E[T]=%.6f  E[T_I]=%.6f  E[T_E]=%.6f\n", efRes.T, efRes.TI, efRes.TE)
	better := "IF"
	if efRes.T < ifRes.T {
		better = "EF"
	}
	fmt.Printf("  better policy: %s\n", better)

	if *exact {
		fmt.Printf("\nexact truncated-chain cross-check:\n")
		for _, pc := range []struct {
			name string
			got  float64
		}{{"IF", ifRes.T}, {"EF", efRes.T}} {
			rule, err := policy.CountRule(pc.name, s.MuI, s.MuE)
			if err != nil {
				log.Fatal(err)
			}
			perf, err := ctmc.AutoSolvePolicy(s, rule, 1e-10)
			if err != nil {
				log.Fatalf("exact solve (%s): %v", pc.name, err)
			}
			fmt.Printf("  %s: exact E[T]=%.6f (analysis error %+.3f%%, truncation %dx%d)\n",
				pc.name, perf.MeanT, 100*(pc.got-perf.MeanT)/perf.MeanT, perf.CapI, perf.CapE)
		}
	}
}
