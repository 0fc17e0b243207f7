// Command resultd is the always-on results service: an HTTP daemon that
// answers sweep-spec POSTs from a memory-speed cache, coalesces concurrent
// identical requests into one computation, and streams partial aggregates
// for long sweeps over SSE (internal/serve).
//
//	resultd -listen 127.0.0.1:9080
//	resultd -listen :0 -addr-file resultd.addr -dispatcher 127.0.0.1:9071
//	resultd -workers 4 -cache cells.jsonl
//
//	curl -s -X POST --data @spec.json http://127.0.0.1:9080/v1/sweep
//	curl -sN -X POST --data @spec.json http://127.0.0.1:9080/v1/sweep/stream
//	curl -s http://127.0.0.1:9080/v1/stats
//
// The spec body is the JSON serialization of an exp.Sweep — the same grid
// cmd/simulate builds from its flags — and the served bytes are identical,
// byte for byte, to `simulate -json` for that spec. A -cache file gives the
// in-memory layers a persistent cell-granularity floor: after a restart,
// previously computed cells are re-served from disk instead of recomputed.
//
// -listen accepts ":0" to pick a free port; -addr-file then publishes the
// actual address for scripts (the CI serving gate uses exactly this).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/serve"
)

const (
	// readHeaderTimeout bounds how long a client may take to send a request
	// header, as the fabric's handshake timeout bounds its hello; without it
	// a client that never finishes its header holds a connection and a
	// goroutine forever.
	readHeaderTimeout = 5 * time.Second
	// idleTimeout closes a keep-alive connection that carries no request.
	// It is longer than net/http's client-side IdleConnTimeout (90 s), so a
	// Go client drops an idle connection before the server does.
	idleTimeout = 2 * time.Minute
	// maxConns caps the open connections. Each one holds a goroutine and a
	// descriptor until a timeout above ends it, so without a cap a flood of
	// idle connections grows both without bound. 512 is far above the CI
	// serving gate's 8 concurrent clients; connections beyond the cap wait
	// in the kernel's listen backlog and hold nothing in the process.
	maxConns = 512
)

// newHTTPServer returns the daemon's HTTP server for h. It sets no
// ReadTimeout or WriteTimeout: either would cut a /v1/sweep/stream response
// off mid-sweep.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// capListener is a net.Listener whose Accept blocks while cap(slots)
// connections are open. Each accepted connection takes a slot, and its
// first Close gives the slot back.
type capListener struct {
	net.Listener
	slots     chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

func limitListener(ln net.Listener, n int) net.Listener {
	return &capListener{Listener: ln, slots: make(chan struct{}, n), done: make(chan struct{})}
}

func (l *capListener) Accept() (net.Conn, error) {
	select {
	case l.slots <- struct{}{}:
	case <-l.done:
		return nil, net.ErrClosed
	}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.slots
		return nil, err
	}
	return &capConn{Conn: c, slots: l.slots}, nil
}

// Close also ends an Accept that is waiting for a slot, so a server at
// its cap still shuts down.
func (l *capListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return l.Listener.Close()
}

type capConn struct {
	net.Conn
	slots     chan struct{}
	closeOnce sync.Once
}

func (c *capConn) Close() error {
	err := c.Conn.Close()
	c.closeOnce.Do(func() { <-c.slots })
	return err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("resultd: ")
	var (
		listen     = flag.String("listen", "127.0.0.1:9080", "address to listen on (\":0\" picks a free port)")
		addrFile   = flag.String("addr-file", "", "write the actual listen address to this file (for scripts with -listen :0)")
		dispatch   = flag.String("dispatcher", "", "compute cache misses on the fabric dispatcher at this address (host:port) instead of the in-process pool")
		redial     = flag.Duration("backend-redial", 10*time.Second, "with -dispatcher: how long a computation redials an unreachable dispatcher before the server degrades (cache hits keep serving, misses get 503 + Retry-After)")
		workers    = flag.Int("workers", 0, "worker pool size when -dispatcher is unset (0 = GOMAXPROCS)")
		cachePath  = flag.String("cache", "", "JSONL cell cache shared with simulate -cache; persists computed cells across restarts")
		maxEntries = flag.Int("max-entries", 0, "response cache entry cap (0 = default 16Ki)")
		maxBytes   = flag.Int64("max-bytes", 0, "response cache byte cap (0 = default 256 MiB)")
		maxCells   = flag.Int("max-cells", 0, "largest admitted grid, in cells (0 = default 4096)")
		maxBody    = flag.Int64("max-body", 0, "largest admitted spec body, in bytes (0 = default 1 MiB)")
		inflight   = flag.Int("max-inflight", 0, "concurrent distinct computations before misses get 503 (0 = default 4)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}
	if err := exp.CheckWorkers(*workers, *dispatch); err != nil {
		log.Fatal(err)
	}

	opts := serve.Options{
		Exp:          exp.Options{Backend: exp.PoolBackend{Workers: *workers}},
		MaxEntries:   *maxEntries,
		MaxBytes:     *maxBytes,
		MaxCells:     *maxCells,
		MaxBodyBytes: *maxBody,
		MaxInflight:  *inflight,
		Logf:         log.Printf,
	}
	backend := "pool"
	if *dispatch != "" {
		// A deliberately short redial budget: resultd degrades fast (serving
		// cache hits, 503ing misses with a Retry-After) instead of letting
		// every miss hang through a long dispatcher outage. The fabric
		// client re-attaches by job ref, so a dispatcher restart inside the
		// budget is a stall, not a failure.
		opts.Exp.Backend = &fabric.Backend{Addr: *dispatch, Name: "resultd", RedialBudget: *redial}
		backend = "fabric " + *dispatch
	}
	if *cachePath != "" {
		fc, err := exp.OpenFileCache(*cachePath)
		if err != nil {
			log.Fatal(err)
		}
		if msg := exp.CorruptWarning(*cachePath, fc.Corrupt()); msg != "" {
			log.Print(msg)
		}
		defer fc.Close()
		log.Printf("cell cache %s: %d entries", *cachePath, fc.Len())
		opts.Exp.Cache = fc
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving on http://%s (backend %s)", ln.Addr(), backend)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	s := serve.New(opts)
	defer s.Close()
	srv := newHTTPServer(s)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	if err := srv.Serve(limitListener(ln, maxConns)); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}
