// Command srptk runs the Appendix A experiment: SRPT-k on batch instances
// of parallelizable jobs (all arriving at time 0, each with a
// parallelizability cap), compared against the LP lower bound of the dual
// fitting proof and — for small instances — against the best priority
// permutation. Theorem 9 guarantees SRPT-k is a 4-approximation.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/srpt"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("srptk: ")
	var (
		trials = flag.Int("trials", 500, "random instances per family")
		seed   = flag.Uint64("seed", 1, "RNG seed")
		brute  = flag.Bool("brute", false, "also compare against the best priority order (n<=7)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if *trials < 1 {
		log.Fatalf("-trials must be >= 1 (got %d)", *trials)
	}

	fmt.Println("SRPT-k batch scheduling (Appendix A): total response vs LP lower bound")
	fmt.Println("family                         worst ratio   mean ratio   (bound: 4.0)")
	for _, row := range exp.SRPTExperiment(*trials, *seed) {
		fmt.Printf("n=%-3d k=%-3d sizes=%-16s %10.4f %12.4f\n",
			row.N, row.K, row.SizeDist, row.WorstRatio, row.MeanRatio)
	}

	if *brute {
		fmt.Println("\nbrute-force check on small instances (n=7, k=4, exp sizes):")
		r := xrand.New(*seed + 1)
		worstVsBest := 0.0
		for trial := 0; trial < 50; trial++ {
			batch := workload.RandomBatch(r, 7, dist.NewExponential(1), 4)
			srptTotal := srpt.SRPTK(batch, 4).TotalResponse
			best := srpt.BestPriorityOrder(batch, 4).TotalResponse
			if ratio := srptTotal / best; ratio > worstVsBest {
				worstVsBest = ratio
			}
		}
		fmt.Printf("  worst SRPT-k / best-permutation ratio over 50 instances: %.4f\n", worstVsBest)
	}
}
