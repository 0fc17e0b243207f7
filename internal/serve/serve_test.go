package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
)

// testSweep is a spec small enough to compute inline in tests; distinct
// seeds make distinct canonical keys.
func testSweep(seed uint64, reps int) exp.Sweep {
	return exp.Sweep{
		Name: "serve-test",
		Grid: exp.Grid{
			K:        []int{2},
			Rho:      []float64{0.5},
			MuI:      []float64{1},
			MuE:      []float64{1},
			Policies: []string{"IF"},
		},
		Reps:     reps,
		BaseSeed: seed,
		Warmup:   50,
		Jobs:     300,
	}
}

func specJSON(t *testing.T, sw exp.Sweep) []byte {
	t.Helper()
	b, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wantJSON computes the reference bytes the service must serve: the sweep
// run through the ordinary exp path and rendered with ResultSet.WriteJSON —
// i.e. exactly what `simulate -json` writes.
func wantJSON(t *testing.T, sw exp.Sweep) []byte {
	t.Helper()
	rs, err := exp.Run(context.Background(), sw, exp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func post(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	return rr
}

// gateBackend counts Submit calls and optionally holds them at a gate so
// tests can pile up waiters before any computation proceeds.
type gateBackend struct {
	inner   exp.Backend
	submits atomic.Int64
	gate    chan struct{} // nil means open
}

func (b *gateBackend) Submit(ctx context.Context, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) error {
	b.submits.Add(1)
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return b.inner.Submit(ctx, env, tasks, emit)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeCacheHitByteIdentity is the tentpole contract: the first request
// computes, every repeat is a cache hit, and the served bytes are identical
// — byte for byte — to what `simulate -json` writes for the same spec.
func TestServeCacheHitByteIdentity(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	sw := testSweep(7, 2)
	body := specJSON(t, sw)
	want := wantJSON(t, sw)

	first := post(s, "/v1/sweep", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d: %s", first.Code, first.Body)
	}
	if !bytes.Equal(first.Body.Bytes(), want) {
		t.Fatal("computed response differs from simulate -json bytes")
	}
	second := post(s, "/v1/sweep", body)
	if second.Code != http.StatusOK || !bytes.Equal(second.Body.Bytes(), want) {
		t.Fatalf("cached response differs (status %d)", second.Code)
	}
	if ct := second.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// Whitespace-different but semantically identical spec coalesces to the
	// same cache entry (canonical key), still byte-identical.
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, body, "", "   "); err != nil {
		t.Fatal(err)
	}
	third := post(s, "/v1/sweep", pretty.Bytes())
	if third.Code != http.StatusOK || !bytes.Equal(third.Body.Bytes(), want) {
		t.Fatal("reformatted spec missed the cache or changed bytes")
	}
	if got := s.computations.Load(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
	if got := s.hits.Load(); got != 2 {
		t.Fatalf("cache hits = %d, want 2", got)
	}
}

// TestCoalesceManyWaitersOneSubmit pins the singleflight guarantee: N
// concurrent identical POSTs cause exactly one backend submission, and all
// N responses are byte-identical.
func TestCoalesceManyWaitersOneSubmit(t *testing.T) {
	const n = 16
	gb := &gateBackend{inner: exp.PoolBackend{}, gate: make(chan struct{})}
	s := New(Options{Exp: exp.Options{Backend: gb}})
	defer s.Close()
	sw := testSweep(11, 1)
	body := specJSON(t, sw)

	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr := post(s, "/v1/sweep", body)
			codes[i] = rr.Code
			bodies[i] = rr.Body.Bytes()
		}(i)
	}
	// All n requests must be parked on one flight before the backend is
	// released: 1 starter + n-1 coalesced joins.
	waitFor(t, "waiters to coalesce", func() bool { return s.coalesced.Load() == n-1 })
	close(gb.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("waiter %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("waiter %d received different bytes", i)
		}
	}
	if got := gb.submits.Load(); got != 1 {
		t.Fatalf("backend submissions = %d, want exactly 1", got)
	}
	if got := s.computations.Load(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
	if !bytes.Equal(bodies[0], wantJSON(t, sw)) {
		t.Fatal("coalesced response differs from simulate -json bytes")
	}
}

// TestCancelledWaiterKeepsComputation: a waiter that disconnects must not
// cancel the shared flight — the surviving waiter still gets bytes and the
// result still lands in the cache.
func TestCancelledWaiterKeepsComputation(t *testing.T) {
	gb := &gateBackend{inner: exp.PoolBackend{}, gate: make(chan struct{})}
	s := New(Options{Exp: exp.Options{Backend: gb}})
	defer s.Close()
	sw := testSweep(13, 1)
	body := specJSON(t, sw)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	cancelled := make(chan struct{})
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)).WithContext(ctx)
		s.ServeHTTP(httptest.NewRecorder(), req)
		close(cancelled)
	}()
	var survivor *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivor = post(s, "/v1/sweep", body)
	}()
	waitFor(t, "both waiters to join", func() bool { return s.coalesced.Load() == 1 })

	cancel()
	select {
	case <-cancelled:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter's handler did not return")
	}
	// The flight must still be running: the cancelled waiter's departure
	// must not have propagated into the backend context.
	s.mu.Lock()
	inflight := s.inflight
	s.mu.Unlock()
	if inflight != 1 {
		t.Fatalf("inflight = %d after waiter cancellation, want 1", inflight)
	}
	close(gb.gate)
	wg.Wait()

	if survivor.Code != http.StatusOK {
		t.Fatalf("surviving waiter: status %d: %s", survivor.Code, survivor.Body)
	}
	if !bytes.Equal(survivor.Body.Bytes(), wantJSON(t, sw)) {
		t.Fatal("surviving waiter's bytes differ from simulate -json")
	}
	if _, hit := s.results.Get(canonicalKey(t, body)); !hit {
		t.Fatal("completed flight's result missing from the response cache")
	}
	if got := gb.submits.Load(); got != 1 {
		t.Fatalf("backend submissions = %d, want 1", got)
	}
}

func canonicalKey(t *testing.T, body []byte) string {
	t.Helper()
	_, key, err := canonicalSpec(body, defaultMaxCells)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestSSEStream drives /v1/sweep/stream end to end: progress events with
// monotonically tightening coverage per cell, then a result event whose
// reassembled data is byte-identical to simulate -json.
func TestSSEStream(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	sw := testSweep(17, 3)
	body := specJSON(t, sw)
	want := wantJSON(t, sw)

	rr := post(s, "/v1/sweep/stream", body)
	if rr.Code != http.StatusOK {
		t.Fatalf("stream: status %d: %s", rr.Code, rr.Body)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := parseSSE(t, rr.Body.String())
	cells := len(sw.Grid.Cells())
	wantProgress := cells * sw.Reps
	var progress int
	lastDone := map[int]int{}
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected %q event before the result", ev.name)
		}
		var p progressEvent
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("bad progress payload %q: %v", ev.data, err)
		}
		if p.DoneReps != lastDone[p.Cell]+1 || p.TotalReps != sw.Reps {
			t.Fatalf("non-monotone progress for cell %d: %+v after %d done", p.Cell, p, lastDone[p.Cell])
		}
		lastDone[p.Cell] = p.DoneReps
		progress++
	}
	if progress != wantProgress {
		t.Fatalf("saw %d progress events, want %d (cells x reps)", progress, wantProgress)
	}
	final := events[len(events)-1]
	if final.name != "result" {
		t.Fatalf("final event is %q, want result", final.name)
	}
	// SSE strips the payload's trailing newline; restore it before the
	// byte comparison.
	if got := final.data + "\n"; got != string(want) {
		t.Fatal("streamed result differs from simulate -json bytes")
	}

	// A second stream for the now-cached spec is a single result event.
	rr = post(s, "/v1/sweep/stream", body)
	events = parseSSE(t, rr.Body.String())
	if len(events) != 1 || events[0].name != "result" || events[0].data+"\n" != string(want) {
		t.Fatalf("cached stream: got %d events, want 1 identical result", len(events))
	}
}

type sseEvent struct {
	name string
	data string
}

// parseSSE reassembles a raw SSE stream: data lines of one event joined
// with '\n' (the trailing newline stays stripped, as the SSE spec demands).
func parseSSE(t *testing.T, raw string) []sseEvent {
	t.Helper()
	var events []sseEvent
	for _, block := range strings.Split(raw, "\n\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		var ev sseEvent
		var data []string
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				data = append(data, line[len("data: "):])
			default:
				t.Fatalf("unparseable SSE line %q", line)
			}
		}
		// Mimic a spec-conformant SSE client: join data lines with '\n',
		// then strip the single trailing newline the framing adds.
		ev.data = strings.TrimSuffix(strings.Join(data, "\n"), "\n")
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no SSE events in stream")
	}
	return events
}

// TestHalfSentBodyIsCut: a client that declares a body and then stops
// sending it gets a 400, or loses its connection, once the body deadline
// passes, instead of holding its handler, goroutine and pooled buffer until
// it hangs up. A stream that outlives the deadline still ends with its
// result: the deadline covers the body read only.
func TestHalfSentBodyIsCut(t *testing.T) {
	gb := &gateBackend{inner: exp.PoolBackend{}, gate: make(chan struct{})}
	s := New(Options{Exp: exp.Options{Backend: gb}})
	defer s.Close()
	s.bodyTimeout = 100 * time.Millisecond
	ts := httptest.NewServer(s)
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/sweep HTTP/1.1\r\nHost: resultd\r\nContent-Length: 1000\r\n\r\n{\"name\":"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("a half-sent body got status %d, want a 4xx", resp.StatusCode)
		}
		// The 4xx must also end the connection, or the handler's goroutine
		// still waits on the rest of the body.
		_, err = io.Copy(io.Discard, br)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a half-sent body still holds its connection after 2s")
	}

	sw := testSweep(23, 2)
	want := wantJSON(t, sw)
	time.AfterFunc(3*s.bodyTimeout, func() { close(gb.gate) })
	resp, err = http.Post(ts.URL+"/v1/sweep/stream", "application/json", bytes.NewReader(specJSON(t, sw)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	events := parseSSE(t, string(raw))
	if final := events[len(events)-1]; final.name != "result" || final.data+"\n" != string(want) {
		t.Fatalf("a stream that outlived the body deadline ended with %q, want the result", final.name)
	}
}

// TestOversizedGridRefusedBeforeExpansion: the admission cap is checked on
// the axis lengths before the spec is validated, so a 624-byte spec with
// four 30-value axes (810,000 cells) gets its 400 without a cell being
// built.
func TestOversizedGridRefusedBeforeExpansion(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	var ks, rhos, mus []string
	for i := 1; i <= 30; i++ {
		ks = append(ks, strconv.Itoa(i))
		rhos = append(rhos, strconv.FormatFloat(float64(i)/31, 'f', 4, 64))
		mus = append(mus, strconv.FormatFloat(float64(i)/4, 'g', -1, 64))
	}
	body := []byte(`{"name":"oversized","grid":{"k":[` + strings.Join(ks, ",") + `],"rho":[` + strings.Join(rhos, ",") +
		`],"muI":[` + strings.Join(mus, ",") + `],"muE":[` + strings.Join(mus, ",") + `],"policies":["IF"]},"jobs":100000}`)
	if len(body) != 624 {
		t.Fatalf("spec is %d bytes, want the 624-byte shape", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rr := post(s, "/v1/sweep", body)
	runtime.ReadMemStats(&after)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "810000 cells, over the admission cap") {
		t.Fatalf("oversized grid: status %d body %q, want 400 naming the admission cap", rr.Code, rr.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("refusing the spec allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestOverBudgetSpecRefused: a one-cell spec of 10^12 jobs would hold a
// MaxInflight slot until the server closes. It gets a 400 naming the cap,
// and the backend never sees it. (JSON's 1e12 is already refused by the
// decoder for the integer jobs field, so the spec spells the number out.)
func TestOverBudgetSpecRefused(t *testing.T) {
	release := make(chan struct{})
	close(release)
	gb := &gateBackend{inner: &instantBackend{release: release}}
	s := New(Options{Exp: exp.Options{Backend: gb}})
	defer s.Close()
	body := []byte(`{"name":"huge","grid":{"k":[2],"rho":[0.5],"muI":[1],"muE":[1],"policies":["IF"]},"jobs":1000000000000}`)
	rr := post(s, "/v1/sweep", body)
	if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "over the admission cap 4294967296") {
		t.Fatalf("10^12-job spec: status %d body %q, want 400 naming the cap", rr.Code, rr.Body)
	}
	if n := gb.submits.Load(); n != 0 {
		t.Fatalf("refused spec reached the backend %d times", n)
	}
	if n := s.computations.Load(); n != 0 {
		t.Fatalf("refused spec started %d computations", n)
	}
	// Reps and warmup count toward the budget; autoWarmup's ignored warmup
	// does not.
	for _, tc := range []struct {
		spec string
		code int
	}{
		{`"reps":4096,"warmup":0,"jobs":1048577`, http.StatusBadRequest},
		{`"reps":4096,"warmup":1,"jobs":1048576`, http.StatusBadRequest},
		{`"reps":4096,"warmup":9000000000000000000,"jobs":9000000000000000000`, http.StatusBadRequest},
		{`"reps":1,"warmup":9000000000000000000,"autoWarmup":true,"jobs":10`, http.StatusOK},
	} {
		body := []byte(`{"name":"budget","grid":{"k":[2],"rho":[0.5],"muI":[1],"muE":[1],"policies":["IF"]},` + tc.spec + `}`)
		if rr := post(s, "/v1/sweep", body); rr.Code != tc.code {
			t.Fatalf("spec {%s}: status %d body %q, want %d", tc.spec, rr.Code, rr.Body, tc.code)
		}
	}
}

// TestAdmission covers the request-validation surface: malformed and
// unknown-field specs, oversized bodies and grids, wrong method, and the
// MaxInflight refusal with Retry-After.
func TestAdmission(t *testing.T) {
	gb := &gateBackend{inner: exp.PoolBackend{}, gate: make(chan struct{})}
	s := New(Options{Exp: exp.Options{Backend: gb}, MaxInflight: 1, MaxBodyBytes: 1 << 10, MaxCells: 4})
	defer s.Close()

	if rr := post(s, "/v1/sweep", []byte("{not json")); rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d, want 400", rr.Code)
	}
	// "engine" was a Sweep field while a second stepping engine existed; an
	// old client still sending it must get a clear 400, not a silent ignore.
	for _, field := range []string{"jbos", "engine"} {
		body := []byte(`{"` + field + `": "rebuild"}`)
		if rr := post(s, "/v1/sweep", body); rr.Code != http.StatusBadRequest ||
			!strings.Contains(rr.Body.String(), field) {
			t.Fatalf("unknown field %q: status %d body %q, want 400 naming the field", field, rr.Code, rr.Body)
		}
	}
	if rr := post(s, "/v1/sweep", bytes.Repeat([]byte("x"), 2<<10)); rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rr.Code)
	}
	wide := testSweep(1, 1)
	wide.Grid.K = []int{1, 2, 3, 4, 5}
	if rr := post(s, "/v1/sweep", specJSON(t, wide)); rr.Code != http.StatusBadRequest ||
		!strings.Contains(rr.Body.String(), "admission cap") {
		t.Fatalf("oversized grid: status %d body %q, want 400", rr.Code, rr.Body)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/sweep", nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", rr.Code)
	}

	// Saturate the single inflight slot, then ask for a distinct spec.
	done := make(chan struct{})
	go func() { defer close(done); post(s, "/v1/sweep", specJSON(t, testSweep(2, 1))) }()
	waitFor(t, "first flight to start", func() bool { return s.computations.Load() == 1 })
	rr = post(s, "/v1/sweep", specJSON(t, testSweep(3, 1)))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-inflight miss: status %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After header")
	}
	// An identical spec, though, joins the running flight — coalesced
	// requests bypass the inflight cap.
	joined := make(chan int, 1)
	go func() { joined <- post(s, "/v1/sweep", specJSON(t, testSweep(2, 1))).Code }()
	waitFor(t, "identical spec to coalesce", func() bool { return s.coalesced.Load() == 1 })
	close(gb.gate)
	<-done
	if code := <-joined; code != http.StatusOK {
		t.Fatalf("coalesced join during saturation: status %d, want 200", code)
	}
}

// TestBoundedUnderDistinctLoad pins the always-on guarantee: sustained
// distinct-spec traffic must not grow server memory without bound — the
// response cache evicts at its cap and the flights table drains to empty.
func TestBoundedUnderDistinctLoad(t *testing.T) {
	s := New(Options{MaxEntries: 4})
	defer s.Close()
	const n = 12
	for i := 0; i < n; i++ {
		sw := testSweep(uint64(100+i), 1)
		if rr := post(s, "/v1/sweep", specJSON(t, sw)); rr.Code != http.StatusOK {
			t.Fatalf("spec %d: status %d: %s", i, rr.Code, rr.Body)
		}
	}
	st := s.results.Stats()
	if st.Entries > 4 {
		t.Fatalf("response cache holds %d entries past its cap 4", st.Entries)
	}
	if st.Evictions != n-4 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-4)
	}
	s.mu.Lock()
	flights, inflight := len(s.flights), s.inflight
	s.mu.Unlock()
	if flights != 0 || inflight != 0 {
		t.Fatalf("flights table not drained: %d entries, %d inflight", flights, inflight)
	}
	// The stats endpoint surfaces the same counters.
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	var got Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("stats endpoint: %v (%s)", err, rr.Body)
	}
	if got.Computations != n || got.Results.Evictions != n-4 {
		t.Fatalf("stats = %+v, want %d computations and %d evictions", got, n, n-4)
	}
}

// TestCoalesceStressRace hammers the flight table from many goroutines
// mixing repeated and distinct specs — run under -race, it is the data-race
// gate for the coalescer; functionally it checks every answer for a spec is
// byte-identical and no spec is computed more than once.
func TestCoalesceStressRace(t *testing.T) {
	gb := &gateBackend{inner: exp.PoolBackend{}}
	s := New(Options{Exp: exp.Options{Backend: gb}, MaxInflight: 64})
	defer s.Close()
	const specs = 4
	const waiters = 8
	bodies := make([][]byte, specs)
	for i := range bodies {
		bodies[i] = specJSON(t, testSweep(uint64(200+i), 1))
	}
	got := make([][][]byte, specs)
	for i := range got {
		got[i] = make([][]byte, waiters)
	}
	var wg sync.WaitGroup
	for i := 0; i < specs; i++ {
		for j := 0; j < waiters; j++ {
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				rr := post(s, "/v1/sweep", bodies[i])
				if rr.Code == http.StatusOK {
					got[i][j] = rr.Body.Bytes()
				}
			}(i, j)
		}
	}
	wg.Wait()
	for i := 0; i < specs; i++ {
		var ref []byte
		for j := 0; j < waiters; j++ {
			if got[i][j] == nil {
				t.Fatalf("spec %d waiter %d failed", i, j)
			}
			if ref == nil {
				ref = got[i][j]
			} else if !bytes.Equal(ref, got[i][j]) {
				t.Fatalf("spec %d: divergent responses across waiters", i)
			}
		}
	}
	if sub := gb.submits.Load(); sub != specs {
		t.Fatalf("backend submissions = %d, want %d (one per distinct spec)", sub, specs)
	}
}

// TestHealthz is the liveness probe contract cmd/resultd's -addr-file
// startup handshake relies on.
func TestHealthz(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK || rr.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rr.Code, rr.Body)
	}
}
