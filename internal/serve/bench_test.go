package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
)

// BenchmarkServeCacheHit measures the tentpole number: cache-hit serving
// throughput over real loopback HTTP. The client is a raw-TCP pipeliner —
// batches of keep-alive requests written in one syscall, responses drained
// in order — because a lock-step client would measure loopback round-trip
// latency, not the server. Reported as requests/sec, which benchlog records
// beside ns/op; its -check gates ns/op, which the rate restates.
func BenchmarkServeCacheHit(b *testing.B) {
	s := New(Options{})
	defer s.Close()
	sw := testSweep(7, 1)
	body, err := jsonBody(sw)
	if err != nil {
		b.Fatal(err)
	}
	// Prewarm: one computed flight, everything after is the hit path.
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rr.Code != http.StatusOK {
		b.Fatalf("prewarm failed: %d %s", rr.Code, rr.Body)
	}
	respLen := rr.Body.Len()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := &http.Server{Handler: s}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	req := fmt.Sprintf("POST /v1/sweep HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body)
	const depth = 64
	batch := []byte(strings.Repeat(req, depth))
	br := bufio.NewReaderSize(conn, 1<<16)

	b.ResetTimer()
	for done := 0; done < b.N; {
		n := depth
		if left := b.N - done; left < n {
			n = left
		}
		if _, err := conn.Write(batch[:n*len(req)]); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := drainResponse(br, respLen); err != nil {
				b.Fatal(err)
			}
		}
		done += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "requests/sec")
}

// drainResponse consumes one pipelined HTTP/1.1 response, checking the
// status and that the body length matches the cached payload.
func drainResponse(br *bufio.Reader, wantLen int) error {
	status, err := br.ReadString('\n')
	if err != nil {
		return err
	}
	if !strings.HasPrefix(status, "HTTP/1.1 200") {
		return fmt.Errorf("unexpected status line %q", status)
	}
	cl := -1
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		if line == "\r\n" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			if cl, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				return err
			}
		}
	}
	if cl != wantLen {
		return fmt.Errorf("Content-Length %d, want %d", cl, wantLen)
	}
	if _, err := br.Discard(cl); err != nil {
		return err
	}
	return nil
}

func jsonBody(sw exp.Sweep) ([]byte, error) { return json.Marshal(sw) }

// instantBackend completes every task immediately with a canned outcome,
// after consuming one release token — it isolates the coalescer's own
// overhead from simulation time. The buffered token channel makes the
// handoff order-independent: the releaser may send before or after Submit
// arrives at the receive.
type instantBackend struct {
	release chan struct{}
}

func (ib *instantBackend) Submit(ctx context.Context, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) error {
	select {
	case <-ib.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	for i, t := range tasks {
		rep := exp.Replication{Rep: t.Sim.Rep, Seed: t.Sim.Seed, MeanT: 1, MeanTI: 1, MeanTE: 1, MeanN: 1, Util: 0.5, Completions: 100}
		if err := emit(exp.TaskResult{Index: i, Outcome: exp.Outcome{Rep: &rep}}); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// BenchmarkServeCoalesced measures the coalescer under contention: per
// iteration, `fanout` concurrent identical requests for a never-seen spec
// pile onto one flight (the backend is gated until all have joined), then
// the flight completes instantly and releases them all. Reported as
// requests/sec over all waiters.
func BenchmarkServeCoalesced(b *testing.B) {
	const fanout = 64
	ib := &instantBackend{release: make(chan struct{}, 1)}
	s := New(Options{Exp: exp.Options{Backend: ib}})
	defer s.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := testSweep(uint64(1000+i), 1)
		body, err := jsonBody(sw)
		if err != nil {
			b.Fatal(err)
		}
		joined := s.coalesced.Load()
		var wg sync.WaitGroup
		fail := make(chan error, fanout)
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rr := httptest.NewRecorder()
				s.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
				if rr.Code != http.StatusOK {
					fail <- fmt.Errorf("status %d: %s", rr.Code, rr.Body)
				}
			}()
		}
		for s.coalesced.Load() < joined+fanout-1 {
			time.Sleep(10 * time.Microsecond)
		}
		ib.release <- struct{}{}
		wg.Wait()
		select {
		case err := <-fail:
			b.Fatal(err)
		default:
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*fanout)/b.Elapsed().Seconds(), "requests/sec")
	if got := s.computations.Load(); got != int64(b.N) {
		b.Fatalf("computations = %d, want %d (one per fanout batch)", got, b.N)
	}
}
