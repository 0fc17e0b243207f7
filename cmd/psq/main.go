// Command psq is the submission CLI of the networked sweep fabric: it
// talks to a running fabricd dispatcher to submit, list and cancel sweep
// jobs.
//
//	psq -dispatcher 127.0.0.1:9071 submit -k 4 -rho 0.7,0.9 -policy IF,EF -reps 3
//	psq -dispatcher 127.0.0.1:9071 submit -detach -k 8 -rho 0.9 -policy IF -reps 5
//	psq -dispatcher 127.0.0.1:9071 list
//	psq -dispatcher 127.0.0.1:9071 stats
//	psq -dispatcher 127.0.0.1:9071 cancel j3
//
// An attached submit (the default) streams results back and prints the
// result table, exactly bit-identical to `simulate` run locally with the
// same flags; Ctrl-C cancels the job on the dispatcher. A -detach submit
// returns the job id immediately and leaves the sweep running on the
// fabric, warming the dispatcher's outcome cache — a later submission of
// the same cells (from psq or any driver with -dispatcher) is answered
// from the cache without recomputation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: psq -dispatcher host:port <command> [flags]

commands:
  submit   submit a sweep (attached by default; -detach to fire and forget)
  list     list jobs on the dispatcher
  stats    show dispatcher counters: workers, queue depth, cache hits
  cancel   cancel a running job by id: psq ... cancel <id>

`)
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("psq: ")
	dispatcher := flag.String("dispatcher", "127.0.0.1:9071", "fabricd dispatcher address (host:port)")
	redial := flag.Duration("redial", 30*time.Second, "submit: how long to redial an unreachable or restarting dispatcher before giving up (re-attaches idempotently by job ref); must be > 0")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	if *redial <= 0 {
		log.Fatalf("-redial must be > 0 (got %v)", *redial)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "submit":
		runSubmit(ctx, *dispatcher, *redial, args)
	case "list":
		runList(ctx, *dispatcher)
	case "stats":
		runStats(ctx, *dispatcher)
	case "cancel":
		runCancel(ctx, *dispatcher, args)
	default:
		log.Printf("unknown command %q", cmd)
		usage()
	}
}

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

func runSubmit(ctx context.Context, dispatcher string, redial time.Duration, args []string) {
	fs := flag.NewFlagSet("psq submit", flag.ExitOnError)
	var (
		name     = fs.String("name", "psq", "job name shown by psq list")
		detach   = fs.Bool("detach", false, "return the job id immediately; the sweep runs on the fabric unattended")
		k        = fs.String("k", "4", "server counts (comma-separated)")
		rho      = fs.String("rho", "0.7", "system loads in (0,1) (comma-separated)")
		muI      = fs.String("muI", "1", "inelastic service rates (comma-separated)")
		muE      = fs.String("muE", "1", "elastic service rates (comma-separated)")
		pol      = fs.String("policy", "IF", "policies (comma-separated)")
		scenario = fs.String("scenario", "", "two-class workload presets instead of -muI/-muE (comma-separated)")
		mix      = fs.String("mix", "", "N-class workload presets instead of -muI/-muE (comma-separated)")
		jobs     = fs.Int64("jobs", 500_000, "measured completions per replication")
		warmup   = fs.Int64("warmup", 50_000, "completions discarded as warmup")
		seed     = fs.Uint64("seed", 1, "base RNG seed")
		reps     = fs.Int("reps", 1, "independent replications per cell")
		tail     = fs.Bool("tail", false, "also report p99 response times")
		jsonPath = fs.String("json", "", "attached: also write the full result set as JSON to this file")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", fs.Args())
	}

	sweep := exp.Sweep{
		Name: *name,
		Grid: exp.Grid{
			K:         parseInts("k", *k),
			Rho:       parseFloats("rho", *rho),
			Policies:  parseList(*pol),
			Scenarios: parseList(*scenario),
			Mixes:     parseList(*mix),
		},
		Reps:     *reps,
		BaseSeed: *seed,
		Warmup:   *warmup,
		Jobs:     *jobs,
		Tail:     *tail,
	}
	if len(sweep.Grid.Scenarios) == 0 && len(sweep.Grid.Mixes) == 0 {
		sweep.Grid.MuI = parseFloats("muI", *muI)
		sweep.Grid.MuE = parseFloats("muE", *muE)
	}

	if *detach {
		tasks, err := sweep.Tasks()
		if err != nil {
			log.Fatal(err)
		}
		cl := &fabric.Client{Addr: dispatcher, RedialBudget: redial}
		id, err := cl.SubmitDetached(ctx, *name, exp.Env{Sweep: &sweep}, tasks)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %s (%d tasks); watch it with: psq -dispatcher %s list\n", id, len(tasks), dispatcher)
		return
	}

	rs, err := exp.Run(ctx, sweep, exp.Options{
		Backend: &fabric.Backend{Addr: dispatcher, Name: *name, RedialBudget: redial},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-3s %-5s %-5s %-5s %-14s %-10s %10s %10s %10s %8s\n",
		"k", "rho", "muI", "muE", "preset", "policy", "E[T]", "E[T_I]", "E[T_E]", "util")
	for _, cr := range rs.Cells {
		c := cr.Cell
		preset := c.Scenario
		if c.Mix != "" {
			preset = c.Mix
		}
		fmt.Printf("%-3d %-5g %-5g %-5g %-14s %-10s %10.6f %10.6f %10.6f %8.4f\n",
			c.K, c.Rho, c.MuI, c.MuE, preset, c.Policy, cr.ET, cr.ETI, cr.ETE, cr.Util)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := rs.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func runList(ctx context.Context, dispatcher string) {
	cl := &fabric.Client{Addr: dispatcher}
	jobs, err := cl.List(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if len(jobs) == 0 {
		fmt.Println("no jobs")
		return
	}
	fmt.Printf("%-6s %-16s %-9s %9s  %s\n", "id", "name", "state", "progress", "error")
	for _, j := range jobs {
		fmt.Printf("%-6s %-16s %-9s %4d/%-4d  %s\n", j.ID, j.Name, j.State, j.Done, j.Total, j.Err)
	}
}

func runStats(ctx context.Context, dispatcher string) {
	cl := &fabric.Client{Addr: dispatcher}
	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workers     %d\n", st.Workers)
	fmt.Printf("queue depth %d\n", st.QueueDepth)
	fmt.Printf("jobs        %d\n", st.Jobs)
	fmt.Printf("cache hits  %d\n", st.CacheHits)
	fmt.Printf("requeues    %d\n", st.Requeues)
	fmt.Printf("handshakes  %d\n", st.Handshakes)
	fmt.Printf("refusals    %d\n", st.Refusals)
	if st.DeadlineExpiries > 0 {
		fmt.Printf("deadline expiries %d\n", st.DeadlineExpiries)
	}
	if st.CacheLen > 0 {
		fmt.Printf("cache len   %d\n", st.CacheLen)
	}
}

func runCancel(ctx context.Context, dispatcher string, args []string) {
	if len(args) != 1 {
		log.Fatal("usage: psq -dispatcher host:port cancel <job-id>")
	}
	cl := &fabric.Client{Addr: dispatcher}
	if err := cl.Cancel(ctx, args[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("canceled %s\n", args[0])
}
