package serve

// Graceful-degradation tests: a server whose fabric backend became
// unreachable keeps serving cache hits, answers misses with 503 and a
// backoff-derived Retry-After instead of hanging, and surfaces the outage
// in /v1/stats. Uses a real in-process dispatcher and worker from
// internal/fabric, then kills them under the running server.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
)

func statsSnapshot(t *testing.T, s *Server) Stats {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	var st Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats endpoint: %v (%s)", err, rr.Body)
	}
	return st
}

func TestBackendDownDegradation(t *testing.T) {
	// A real fabric under the server, so the outage below is a real one.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := fabric.NewDispatcher(fabric.DispatcherOptions{})
	dDone := make(chan error, 1)
	go func() { dDone <- d.Serve(ln) }()
	addr := ln.Addr().String()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	wDone := make(chan struct{})
	go func() {
		defer close(wDone)
		w := &fabric.Worker{
			Dispatcher:        addr,
			Name:              "w1",
			HeartbeatInterval: 50 * time.Millisecond,
			ReconnectBackoff:  10 * time.Millisecond,
		}
		w.Run(wctx)
	}()

	// A short redial budget so a miss against the dead fabric degrades in
	// ~300ms instead of the production default.
	s := New(Options{
		Exp: exp.Options{Backend: &fabric.Backend{
			Addr:             addr,
			Name:             "degrade-test",
			ReconnectBackoff: 10 * time.Millisecond,
			RedialBudget:     300 * time.Millisecond,
		}},
	})
	s.retryBase = 2 * time.Second
	defer s.Close()

	swA := testSweep(31, 1)
	if rr := post(s, "/v1/sweep", specJSON(t, swA)); rr.Code != http.StatusOK {
		t.Fatalf("healthy compute: status %d: %s", rr.Code, rr.Body)
	}

	// Kill the fabric under the running server.
	wcancel()
	<-wDone
	d.Close()
	if err := <-dDone; err != nil {
		t.Fatalf("dispatcher Serve: %v", err)
	}

	// Cache hits are untouched by the outage.
	rr := post(s, "/v1/sweep", specJSON(t, swA))
	if rr.Code != http.StatusOK {
		t.Fatalf("cache hit during outage: status %d: %s", rr.Code, rr.Body)
	}

	// A miss probes the backend, exhausts the redial budget, and degrades:
	// 503 with a Retry-After derived from the open backoff window.
	swB := testSweep(32, 1)
	rr = post(s, "/v1/sweep", specJSON(t, swB))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("miss during outage: status %d, want 503: %s", rr.Code, rr.Body)
	}
	ra, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil || ra < 1 || ra > 300 {
		t.Fatalf("miss during outage: Retry-After %q, want an integer in [1,300]", rr.Header().Get("Retry-After"))
	}

	// The window is now open: the next miss is refused up front — no
	// redial loop, so the answer comes back much faster than the budget.
	start := time.Now()
	rr = post(s, "/v1/sweep", specJSON(t, swB))
	if took := time.Since(start); rr.Code != http.StatusServiceUnavailable || took > 200*time.Millisecond {
		t.Fatalf("second miss: status %d in %v, want a fast 503 from the open window", rr.Code, took)
	}
	if _, err := strconv.Atoi(rr.Header().Get("Retry-After")); err != nil {
		t.Fatalf("windowed 503 without a Retry-After hint: %q", rr.Header().Get("Retry-After"))
	}

	// And a cache hit still serves while the window is open.
	if rr := post(s, "/v1/sweep", specJSON(t, swA)); rr.Code != http.StatusOK {
		t.Fatalf("cache hit with window open: status %d", rr.Code)
	}

	st := statsSnapshot(t, s)
	if st.BackendUnavailable < 1 {
		t.Fatalf("stats backendUnavailable = %d, want >= 1", st.BackendUnavailable)
	}
	if !st.BackendDown || st.BackendRetryInSec < 1 {
		t.Fatalf("stats = %+v, want backendDown with a positive retry hint", st)
	}
}

// TestBackendRecoveryProbe: once the backoff window closes, the first miss
// probes the (restored) backend and service resumes — and the down
// markers clear.
func TestBackendRecoveryProbe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listening yet: the fabric starts out dead

	s := New(Options{
		Exp: exp.Options{Backend: &fabric.Backend{
			Addr:             addr,
			Name:             "probe-test",
			ReconnectBackoff: 10 * time.Millisecond,
			RedialBudget:     200 * time.Millisecond,
		}},
	})
	s.retryBase = 300 * time.Millisecond
	defer s.Close()

	sw := testSweep(33, 1)
	if rr := post(s, "/v1/sweep", specJSON(t, sw)); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("miss against dead fabric: status %d, want 503", rr.Code)
	}

	// Bring the fabric up on the same address while the window runs out.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	d := fabric.NewDispatcher(fabric.DispatcherOptions{})
	dDone := make(chan error, 1)
	go func() { dDone <- d.Serve(ln2) }()
	defer func() {
		d.Close()
		if err := <-dDone; err != nil {
			t.Errorf("dispatcher Serve: %v", err)
		}
	}()
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	go func() {
		w := &fabric.Worker{
			Dispatcher:        addr,
			Name:              "w1",
			HeartbeatInterval: 50 * time.Millisecond,
			ReconnectBackoff:  10 * time.Millisecond,
		}
		w.Run(wctx)
	}()

	waitFor(t, "window to close and the probe to succeed", func() bool {
		return post(s, "/v1/sweep", specJSON(t, sw)).Code == http.StatusOK
	})
	st := statsSnapshot(t, s)
	if st.BackendDown {
		t.Fatalf("stats still report backendDown after a successful probe: %+v", st)
	}
}
