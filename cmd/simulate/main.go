// Command simulate runs the event-driven simulator for the paper's model
// through the internal/exp worker pool. Every grid flag accepts a
// comma-separated list, so a single invocation can sweep load, service
// rates and policies in parallel; a one-point grid reproduces the classic
// single-run behavior. Results are deterministic for any -workers value.
//
// Usage:
//
//	simulate -k 4 -rho 0.9 -muI 0.5 -muE 1.0 -policy IF -jobs 1000000
//	simulate -k 4 -rho 0.7 -muI 2 -muE 1 -policy THRESH:2 -reps 5
//	simulate -k 4,8 -rho 0.5,0.7,0.9 -muI 2 -muE 1 -policy IF,EF -reps 3 -workers 8
//	simulate -k 8 -rho 0.7 -scenario mapreduce,mlplatform -policy IF,EF
//	simulate -k 8 -rho 0.5,0.7 -mix threeclass,partialelastic -policy LFF,EQUI,EF
//	simulate -k 4 -rho 0.9 -muI 1 -muE 1 -policy IF -cache sweep.jsonl -csv out.csv
//	simulate -k 4 -rho 0.7,0.9 -mix threeclass -policy LFF,EQUI -tail -dispatcher 127.0.0.1:9071
//	simulate -k 8 -rho 0.9 -policy IF -reps 5 -dispatcher 127.0.0.1:9071 -detach
//	simulate -k 16 -rho 0.98 -muI 1 -muE 1 -policy IF -jobs 2000000
//	simulate -k 4 -rho 0.9 -mix threeclass -policy LFF -quantiles 0.5,0.95,0.99,0.999
//
// -dispatcher host:port submits the (cell, replication) tasks to a
// networked fabric dispatcher (cmd/fabricd) instead of the default
// goroutine pool; results are bit-identical either way, and Ctrl-C cancels
// the job on the dispatcher. Adding -detach submits the same tasks as a job
// that runs with no client attached: simulate prints the job id and exits,
// the sweep warms the dispatcher's outcome cache, and a later run of the
// same flags with -dispatcher is answered from that cache. cmd/psq lists,
// inspects and cancels such jobs.
// -tail adds reservoir-sampled p99 response times, overall
// and per class; -quantiles widens that to any quantile set. Stepping costs
// O(changed·log n) per event, so near-saturation sweeps with many resident
// jobs stay tractable.
// -cpuprofile/-memprofile/-mutexprofile write go-tool-pprof-loadable
// profiles of the sweep (profile.go), the same wiring `scripts/bench.sh
// profile` uses for the benchmark hot path.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/fabric"
)

func parseInts(flagName, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("-%s: %q is not an integer", flagName, part)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(flagName, s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			log.Fatalf("-%s: %q is not a number", flagName, part)
		}
		out = append(out, v)
	}
	return out
}

func parseList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("simulate: ")
	var (
		k        = flag.String("k", "4", "server counts (comma-separated)")
		rho      = flag.String("rho", "0.7", "system loads in (0,1), lambdaI=lambdaE (comma-separated)")
		muI      = flag.String("muI", "1", "inelastic service rates (comma-separated)")
		muE      = flag.String("muE", "1", "elastic service rates (comma-separated)")
		pol      = flag.String("policy", "IF", "policies: IF, EF, FCFS, EQUI, GREEDY, DEFER, SRPT, LFF, SMF, THRESH:<cap>, PRIO:<c0>><c1>>... (comma-separated; use '>' inside PRIO orders)")
		scenario = flag.String("scenario", "", "sweep two-class workload presets instead of -muI/-muE: mapreduce, mlplatform, hpcmalleable (comma-separated)")
		mix      = flag.String("mix", "", "sweep N-class workload presets instead of -muI/-muE: threeclass, partialelastic, cappedladder (comma-separated)")
		jobs     = flag.Int64("jobs", 500_000, "measured completions per replication")
		warmup   = flag.Int64("warmup", 50_000, "completions discarded as warmup")
		autoWarm = flag.Bool("auto-warmup", false, "MSER-5 warmup trimming instead of a fixed -warmup budget")
		batches  = flag.Int("batches", 0, "per-replication batch-means CI with this many batches (0 = off, else >= 2)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		reps     = flag.Int("reps", 1, "independent replications per cell")
		workers  = flag.Int("workers", 0, "worker pool size when -dispatcher is unset (0 = GOMAXPROCS)")
		dispatch = flag.String("dispatcher", "", "run on the fabric dispatcher at this address (host:port) instead of the in-process pool")
		detach   = flag.Bool("detach", false, "with -dispatcher: submit the sweep as a detached job, print its id and exit")
		tail     = flag.Bool("tail", false, "also report p99 response times, overall and per class")
		quants   = flag.String("quantiles", "", "tail quantiles in (0,1), e.g. 0.5,0.95,0.99,0.999 (implies -tail)")
		cache    = flag.String("cache", "", "JSONL result cache; completed cells are reused across runs")
		csvPath  = flag.String("csv", "", "also write the result table as CSV to this file")
		jsonPath = flag.String("json", "", "also write the full result set (per-replication detail) as JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile of the sweep to this file")
		mtxProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the sweep to this file")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if err := exp.CheckWorkers(*workers, *dispatch); err != nil {
		log.Fatal(err)
	}
	if *detach && (*dispatch == "" || *cache != "" || *csvPath != "" || *jsonPath != "") {
		log.Fatal("-detach needs -dispatcher and takes no -cache, -csv or -json (no results come back)")
	}
	defer startProfiling(*cpuProf, *memProf, *mtxProf)()
	if *reps < 1 {
		log.Fatalf("-reps must be >= 1 (got %d)", *reps)
	}
	if *seed < 1 {
		log.Fatalf("-seed must be >= 1 (got %d)", *seed)
	}

	policies := parseList(*pol)
	if len(policies) == 0 {
		log.Fatal("-policy must name at least one policy")
	}

	var tailQuantiles []float64
	if *quants != "" {
		tailQuantiles = parseFloats("quantiles", *quants)
		*tail = true // a quantile set without -tail is clearly meant as a tail request
	}
	sweep := exp.Sweep{
		Name: "simulate",
		Grid: exp.Grid{
			K:         parseInts("k", *k),
			Rho:       parseFloats("rho", *rho),
			Policies:  policies,
			Scenarios: parseList(*scenario),
			Mixes:     parseList(*mix),
		},
		Reps:          *reps,
		BaseSeed:      *seed,
		Warmup:        *warmup,
		Jobs:          *jobs,
		AutoWarmup:    *autoWarm,
		Batches:       *batches,
		Tail:          *tail,
		TailQuantiles: tailQuantiles,
	}
	if len(sweep.Grid.Scenarios) > 0 && len(sweep.Grid.Mixes) > 0 {
		log.Fatal("-scenario and -mix are mutually exclusive")
	}
	if len(sweep.Grid.Scenarios) == 0 && len(sweep.Grid.Mixes) == 0 {
		sweep.Grid.MuI = parseFloats("muI", *muI)
		sweep.Grid.MuE = parseFloats("muE", *muE)
	} else {
		// Workload presets fix their own size distributions; explicit
		// service-rate flags would be silently meaningless.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "muI" || f.Name == "muE" {
				log.Fatalf("-%s cannot be combined with -scenario/-mix (presets fix their size distributions)", f.Name)
			}
		})
	}

	// Ctrl-C cancels the sweep (a detached one only until the dispatcher
	// has acknowledged it); completed cells are already in the cache, so
	// the next run resumes where this one stopped.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *detach {
		tasks, err := sweep.Tasks()
		if err != nil {
			log.Fatal(err)
		}
		id, err := (&fabric.Client{Addr: *dispatch}).SubmitDetached(ctx, sweep.Name, exp.Env{Sweep: &sweep}, tasks)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %s (%d tasks); watch it with: psq -dispatcher %s list\n", id, len(tasks), *dispatch)
		return
	}

	opt := exp.Options{Backend: exp.PoolBackend{Workers: *workers}}
	if *dispatch != "" {
		opt.Backend = &fabric.Backend{Addr: *dispatch, Name: sweep.Name}
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

	rs, err := exp.Run(ctx, sweep, opt)
	if err != nil {
		log.Fatal(err)
	}

	cells := len(rs.Cells)
	fmt.Printf("sweep: %d cells x %d reps, %d jobs/rep (seed %d)\n\n", cells, *reps, *jobs, *seed)
	fmt.Printf("%-3s %-5s %-5s %-5s %-14s %-10s %10s %10s %10s %10s %10s %8s %9s\n",
		"k", "rho", "muI", "muE", "preset", "policy", "E[T]", "±95%", "E[T_I]", "E[T_E]", "E[N]", "util", "jobs")
	for _, cr := range rs.Cells {
		c := cr.Cell
		// No CI exists for a single replication without batch means; show
		// "-" rather than a misleading zero width.
		ci := fmt.Sprintf("%10.6f", cr.ETCI)
		if len(cr.Reps) < 2 && cr.ETCI == 0 {
			ci = fmt.Sprintf("%10s", "-")
		}
		preset := c.Scenario
		if c.Mix != "" {
			preset = c.Mix
		}
		fmt.Printf("%-3d %-5g %-5g %-5g %-14s %-10s %10.6f %s %10.6f %10.6f %10.6f %8.4f %9d\n",
			c.K, c.Rho, c.MuI, c.MuE, preset, c.Policy, cr.ET, ci, cr.ETI, cr.ETE, cr.EN, cr.Util, cr.Completions)
		if len(cr.ETPerClass) > 2 {
			fmt.Printf("%-9s per-class E[T]:", "")
			for i, v := range cr.ETPerClass {
				fmt.Printf(" [%d]=%.6f", i, v)
			}
			fmt.Println()
		}
		if len(cr.P99PerClass) > 0 {
			fmt.Printf("%-9s p99: all=%.6f", "", cr.P99)
			for i, v := range cr.P99PerClass {
				fmt.Printf(" [%d]=%.6f", i, v)
			}
			fmt.Println()
		}
		if len(cr.Quantiles) > 0 {
			fmt.Printf("%-9s quantiles:", "")
			for qi, q := range sweep.TailQuantiles {
				fmt.Printf(" p%g=%.6f", q*100, cr.Quantiles[qi])
			}
			fmt.Println()
		}
	}

	if *csvPath != "" {
		writeTo(*csvPath, rs.WriteCSV)
	}
	if *jsonPath != "" {
		writeTo(*jsonPath, rs.WriteJSON)
	}
}

func writeTo(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
