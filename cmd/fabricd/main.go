// Command fabricd is the networked sweep fabric daemon. One process runs as
// the dispatcher — it owns the task queue, the job registry and the outcome
// cache, and listens for workers and clients — and any number of processes
// on any reachable host run as workers that connect to it and execute
// tasks:
//
//	fabricd -role dispatcher -listen 127.0.0.1:9071 -cache outcomes.jsonl
//	fabricd -role dispatcher -listen 127.0.0.1:9071 -journal jobs.jsonl
//	fabricd -role worker -dispatcher 127.0.0.1:9071 -slots 8
//
// Sweeps are submitted either attached, from any driver with
// `-dispatcher host:port` (simulate, figures, dominance, resultd), or
// detached with `simulate -dispatcher host:port -detach`; cmd/psq lists,
// inspects and cancels them. Workers heartbeat while connected and reconnect
// with exponential backoff; the dispatcher re-queues the in-flight task of
// a lost worker, so killing a worker mid-sweep changes nothing about the
// results — every backend is bit-identical by construction.
//
// With -journal, the dispatcher is crash-safe: every submission, grant and
// completion is appended write-ahead to a JSONL journal, and a restarted
// dispatcher replays it — jobs resume, finished tasks are not recomputed,
// and clients that redialed re-attach by idempotency ref. SIGTERM drains
// gracefully (workers finish their in-flight task; the dispatcher stops
// granting, waits for in-flight tasks, journals a clean-shutdown record);
// SIGINT, or a second signal, stops immediately.
//
// -listen accepts ":0" to pick a free port; -addr-file then publishes the
// actual address for scripts (the CI gate uses exactly this).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fabricd: ")
	var (
		role         = flag.String("role", "", "dispatcher or worker (required)")
		listen       = flag.String("listen", "127.0.0.1:9071", "dispatcher: address to listen on (\":0\" picks a free port)")
		addrFile     = flag.String("addr-file", "", "dispatcher: write the actual listen address to this file (for scripts with -listen :0)")
		cachePath    = flag.String("cache", "", "dispatcher: JSONL outcome cache; finished tasks are reused across jobs and clients")
		journalPath  = flag.String("journal", "", "dispatcher: JSONL write-ahead job journal; a restart replays it, resuming jobs and re-queueing interrupted tasks")
		hbTimeout    = flag.Duration("heartbeat-timeout", 15*time.Second, "dispatcher: silence after which a worker is declared dead and its task re-queued")
		taskDeadline = flag.Duration("task-deadline", 0, "dispatcher: per-task execution deadline; an assignment unanswered this long is re-queued against the same retry budget as a worker loss (0 disables)")
		attempts     = flag.Int("max-attempts", 3, "dispatcher: attempts per task across worker losses (and, with -journal, dispatcher restarts) before the job fails")
		drainWait    = flag.Duration("drain-timeout", 30*time.Second, "how long a SIGTERM drain waits for in-flight tasks before giving up")
		dispatcher   = flag.String("dispatcher", "", "worker: dispatcher address to connect to (required)")
		name         = flag.String("name", "", "worker: name reported to the dispatcher (default host:pid)")
		slots        = flag.Int("slots", 1, "worker: concurrent task slots (independent connections) in this process")
		heartbeat    = flag.Duration("heartbeat", 3*time.Second, "worker: heartbeat interval; keep well under the dispatcher's -heartbeat-timeout")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}

	switch *role {
	case "dispatcher":
		runDispatcher(*listen, *addrFile, *cachePath, *journalPath, *hbTimeout, *taskDeadline, *attempts, *drainWait)
	case "worker":
		runWorker(*dispatcher, *name, *slots, *heartbeat, *drainWait)
	default:
		log.Fatalf("-role must be dispatcher or worker (got %q)", *role)
	}
}

func runDispatcher(listen, addrFile, cachePath, journalPath string, hbTimeout, taskDeadline time.Duration, attempts int, drainWait time.Duration) {
	opts := fabric.DispatcherOptions{
		MaxTaskAttempts:  attempts,
		HeartbeatTimeout: hbTimeout,
		TaskDeadline:     taskDeadline,
		Logf:             log.Printf,
	}
	if cachePath != "" {
		fc, err := exp.OpenFileCache(cachePath)
		if err != nil {
			log.Fatal(err)
		}
		if msg := exp.CorruptWarning(cachePath, fc.Corrupt()); msg != "" {
			log.Print(msg)
		}
		defer fc.Close()
		log.Printf("outcome cache %s: %d entries", cachePath, fc.OutcomeLen())
		opts.Cache = fc
	}
	if journalPath != "" {
		jl, err := fabric.OpenJournal(journalPath)
		if err != nil {
			log.Fatal(err)
		}
		defer jl.Close()
		opts.Journal = jl
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dispatcher listening on %s (env probe %s)", ln.Addr(), fabric.EnvProbe())
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	d := fabric.NewDispatcher(opts)

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		if sig == syscall.SIGTERM {
			// Graceful: stop granting, let in-flight tasks land, journal the
			// clean shutdown. A second signal skips straight to Close.
			log.Printf("SIGTERM: draining (timeout %v; send again to stop now)", drainWait)
			done := make(chan struct{})
			go func() {
				d.Drain(drainWait)
				close(done)
			}()
			select {
			case <-done:
			case <-sigCh:
				log.Printf("second signal: stopping now")
			}
		} else {
			log.Printf("interrupt: shutting down")
		}
		d.Close()
	}()
	if err := d.Serve(ln); err != nil {
		log.Fatal(err)
	}
}

func runWorker(dispatcher, name string, slots int, heartbeat, drainWait time.Duration) {
	if dispatcher == "" {
		log.Fatal("-role worker requires -dispatcher host:port")
	}
	if slots < 1 {
		log.Fatalf("-slots must be >= 1 (got %d)", slots)
	}
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	log.Printf("%d worker slot(s) connecting to %s", slots, dispatcher)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	workers := make([]*fabric.Worker, slots)
	for i := 0; i < slots; i++ {
		w := &fabric.Worker{
			Dispatcher:        dispatcher,
			Name:              fmt.Sprintf("%s/%d", name, i),
			HeartbeatInterval: heartbeat,
			Logf:              log.Printf,
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil && ctx.Err() == nil {
				// A handshake refusal is permanent (version or env drift):
				// surface it loudly and bring the whole process down rather
				// than serve with a subset of drifted slots.
				log.Fatalf("worker %s: %v", w.Name, err)
			}
		}()
	}

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		if sig == syscall.SIGTERM {
			// Graceful: each slot finishes its in-flight task, delivers the
			// result, and deregisters. A second signal, or the drain timeout,
			// cancels hard.
			log.Printf("SIGTERM: draining %d slot(s) (timeout %v; send again to stop now)", slots, drainWait)
			for _, w := range workers {
				w.Drain()
			}
			select {
			case <-sigCh:
				log.Printf("second signal: stopping now")
			case <-time.After(drainWait):
				log.Printf("drain timed out, stopping now")
			case <-ctx.Done():
			}
			cancel()
			return
		}
		log.Printf("interrupt: shutting down")
		cancel()
	}()
	wg.Wait()
	cancel()
}
