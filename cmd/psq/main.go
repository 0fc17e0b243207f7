// Command psq observes and controls a running fabricd dispatcher: it lists
// the jobs, shows the dispatcher's counters and cancels jobs.
//
//	psq -dispatcher 127.0.0.1:9071 list
//	psq -dispatcher 127.0.0.1:9071 stats
//	psq -dispatcher 127.0.0.1:9071 cancel j3
//
// Sweeps are submitted by the drivers: attached with -dispatcher (simulate,
// figures, dominance, resultd), or detached with
// `simulate -dispatcher host:port -detach`, which prints the job id that
// psq list and psq cancel take.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro/internal/fabric"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: psq -dispatcher host:port <command>

commands:
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
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cl := &fabric.Client{Addr: *dispatcher}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "list":
		runList(ctx, cl)
	case "stats":
		runStats(ctx, cl)
	case "cancel":
		runCancel(ctx, cl, args)
	default:
		log.Printf("unknown command %q", cmd)
		usage()
	}
}

func runList(ctx context.Context, cl *fabric.Client) {
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

func runStats(ctx context.Context, cl *fabric.Client) {
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

func runCancel(ctx context.Context, cl *fabric.Client, args []string) {
	if len(args) != 1 {
		log.Fatal("usage: psq -dispatcher host:port cancel <job-id>")
	}
	if err := cl.Cancel(ctx, args[0]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("canceled %s\n", args[0])
}
