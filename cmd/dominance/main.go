// Command dominance runs the Theorem 3 coupled sample-path experiment from
// the command line: two policies are driven in lockstep over identical
// arrival sequences and the total and inelastic work in system are compared
// at every event epoch. Independent traces run in parallel on an
// internal/exp dispatch backend — goroutines by default, or a networked
// fabric dispatcher with -dispatcher host:port.
//
// Usage:
//
//	dominance -k 4 -rho 0.8 -muI 1.5 -muE 1.0 -a IF -b EF -n 20000 -seeds 5
//	dominance -k 4 -rho 0.8 -a IF -b FCFS -seeds 8 -dispatcher 127.0.0.1:9071
//	dominance -k 4 -rho 0.8 -seeds 32 -cache dominance.jsonl   # resumable
//
// -cache persists each finished trace as a JSONL task outcome (keyed by
// exp.TaskKey), so an interrupted many-seed run resumes where it stopped.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/exp"
	"repro/internal/fabric"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dominance: ")
	var (
		k        = flag.Int("k", 4, "number of servers")
		rho      = flag.Float64("rho", 0.8, "system load in (0,1) (lambdaI=lambdaE)")
		muI      = flag.Float64("muI", 1.5, "inelastic service rate")
		muE      = flag.Float64("muE", 1.0, "elastic service rate")
		polA     = flag.String("a", "IF", "policy A (the claimed dominator)")
		polB     = flag.String("b", "EF", "policy B")
		n        = flag.Int("n", 20_000, "arrivals per trace")
		seeds    = flag.Int("seeds", 5, "number of independent traces")
		workers  = flag.Int("workers", 0, "worker pool size when -dispatcher is unset (0 = GOMAXPROCS)")
		dispatch = flag.String("dispatcher", "", "run on the fabric dispatcher at this address (host:port) instead of the in-process pool")
		cache    = flag.String("cache", "", "JSONL outcome cache; finished traces are reused across runs")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if err := exp.CheckWorkers(*workers, *dispatch); err != nil {
		log.Fatal(err)
	}
	opt := exp.Options{Backend: exp.PoolBackend{Workers: *workers}}
	if *dispatch != "" {
		opt.Backend = &fabric.Backend{Addr: *dispatch, Name: "dominance"}
	}
	if *cache != "" {
		fc, err := exp.OpenFileCache(*cache)
		if err != nil {
			log.Fatal(err)
		}
		if msg := exp.CorruptWarning(*cache, fc.Corrupt()); msg != "" {
			log.Print(msg)
		}
		defer fc.Close()
		opt.Cache = fc
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runs, err := exp.Dominance(ctx, exp.DominanceConfig{
		K: *k, Rho: *rho, MuI: *muI, MuE: *muE,
		PolicyA: *polA, PolicyB: *polB,
		Arrivals: *n, Seeds: *seeds,
	}, opt)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("coupled runs: k=%d rho=%.2f muI=%g muE=%g, %d arrivals x %d seeds\n",
		*k, *rho, *muI, *muE, *n, *seeds)
	fmt.Printf("claim: W_%s(t) <= W_%s(t) and W_I,%s(t) <= W_I,%s(t) for all t\n\n",
		*polA, *polB, *polA, *polB)

	totalChecks, totalViolations := 0, 0
	for _, run := range runs {
		totalChecks += run.Checked
		totalViolations += run.Violations
		status := "dominates"
		if run.Violations > 0 {
			status = fmt.Sprintf("VIOLATED (first: %s)", run.First)
		}
		fmt.Printf("seed %2d: %7d checks, mean-resp ratio %s/%s = %.4f, %s\n",
			run.Seed, run.Checked, *polA, *polB, run.RatioAB, status)
	}
	fmt.Printf("\ntotal: %d checks, %d violations\n", totalChecks, totalViolations)
	if totalViolations == 0 {
		fmt.Printf("%s work-dominates %s on every sampled path — consistent with Theorem 3\n", *polA, *polB)
	} else {
		fmt.Printf("dominance does NOT hold (expected when %s is not IF, or rival is outside class P)\n", *polA)
	}
}
