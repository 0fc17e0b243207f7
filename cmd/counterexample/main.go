// Command counterexample reproduces Theorem 6: with k = 2 servers,
// muE = 2 muI, two inelastic jobs and one elastic job at time 0 and no
// further arrivals, Elastic-First strictly beats Inelastic-First. The exact
// expected total response times are 35/12/muI (IF) and 33/12/muI (EF).
// The command computes both by first-step analysis of the absorbing chain
// and verifies them against Monte Carlo simulation.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/exp"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("counterexample: ")
	var (
		muI    = flag.Float64("muI", 1, "inelastic service rate (muE = 2*muI)")
		trials = flag.Int("trials", 200_000, "Monte Carlo trials for the cross-check")
		seed   = flag.Uint64("seed", 1, "RNG seed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *muI <= 0 {
		log.Fatalf("-muI must be positive (got %g)", *muI)
	}
	if *trials < 1 {
		log.Fatalf("-trials must be >= 1 (got %d)", *trials)
	}

	res, err := exp.Theorem6(*muI)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Theorem 6 counterexample: k=2, muI=%g, muE=%g, start = 2 inelastic + 1 elastic\n\n", res.MuI, res.MuE)
	fmt.Printf("first-step analysis (exact):\n")
	fmt.Printf("  IF total E[sum T] = %.9f  (paper: 35/12/muI = %.9f)\n", res.IFTotal, res.IFExpect)
	fmt.Printf("  EF total E[sum T] = %.9f  (paper: 33/12/muI = %.9f)\n", res.EFTotal, res.EFExpect)
	fmt.Printf("  EF/IF = %.6f  => EF is strictly better when muI < muE\n\n", res.EFTotal/res.IFTotal)

	mc := func(p sim.Policy) float64 {
		r := xrand.New(*seed)
		total := 0.0
		for trial := 0; trial < *trials; trial++ {
			sys := sim.NewSystem(2, p)
			sys.Arrive(sim.Arrival{Time: 0, Class: sim.Inelastic, Size: r.Exp(*muI)})
			sys.Arrive(sim.Arrival{Time: 0, Class: sim.Inelastic, Size: r.Exp(*muI)})
			sys.Arrive(sim.Arrival{Time: 0, Class: sim.Elastic, Size: r.Exp(2 * *muI)})
			for _, c := range sys.Drain(1e12) {
				total += c.Response()
			}
		}
		return total / float64(*trials)
	}
	fmt.Printf("Monte Carlo cross-check (%d trials):\n", *trials)
	fmt.Printf("  IF total = %.6f\n", mc(policy.InelasticFirst{}))
	fmt.Printf("  EF total = %.6f\n", mc(policy.ElasticFirst{}))
}
