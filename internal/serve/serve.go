// Package serve is the always-on results service of the experiment layer:
// an HTTP server (cmd/resultd) where clients POST a sweep spec — the same
// JSON shape cmd/simulate's grid uses, i.e. a serialized exp.Sweep — and
// get back the completed ResultSet, byte-identical to what `simulate -json`
// would have written for the same spec.
//
// The layering is three caches deep, fastest first:
//
//  1. a size-bounded LRU of fully-rendered response bytes (internal/lru),
//     keyed by the canonical spec hash, with a second raw-body memo LRU in
//     front of it so the hot path answers repeat requests without even
//     parsing JSON — a cache hit is two map lookups and one write;
//  2. exp.Options.Cache (cell granularity): a miss recomputes only the
//     cells the underlying cache does not hold;
//  3. the configured exp.Backend — the in-process pool, or a fabric
//     dispatcher (`resultd -dispatcher host:port`).
//
// Concurrent identical requests are coalesced singleflight-style: N waiters
// share 1 backend submission and all receive the same bytes; a waiter that
// disconnects never cancels the shared computation (it runs on the server's
// base context, and its result still lands in the cache). Long sweeps can
// be watched on /v1/sweep/stream, which streams partial aggregates over SSE
// — cells completed so far, CIs tightening — as RunProgress events, with
// late subscribers replayed from the start of the flight.
//
// Endpoints: POST /v1/sweep (JSON), POST /v1/sweep/stream (SSE),
// GET /v1/stats (counters of every layer), GET /healthz.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/lru"
)

// Defaults for the zero Options value.
const (
	defaultMaxEntries   = 1 << 14
	defaultMaxBytes     = 256 << 20
	defaultMaxCells     = 4096
	defaultMaxBodyBytes = 1 << 20
	defaultMaxInflight  = 4
	// rawMemo entries are (body bytes -> 64-byte key); bound them tighter
	// on bytes since hostile clients control body size.
	defaultMemoEntries = 1 << 15
	defaultMemoBytes   = 64 << 20
	// maxSpecJobs caps the simulated jobs one admitted spec asks for. A
	// flight holds a MaxInflight slot until it ends, and only Close cancels
	// it, so without a cap four specs of 10^12 jobs would hold every slot
	// for good. 2^32 is above every spec this repository sends (the ci.sh
	// serving spec asks for 35,200 jobs, the benchmark's serve specs for
	// 9,600) and above a default-cap grid run at cmd/simulate's defaults
	// (4096 cells × 1 rep × 550,000 jobs, 2.25e9).
	maxSpecJobs = 1 << 32
	// bodyReadTimeout bounds the wait for a declared request body. Without
	// it a client that sends a complete header and then stops holds its
	// handler, its goroutine and a pooled body buffer until it hangs up:
	// the server's ReadHeaderTimeout and IdleTimeout do not cover the body,
	// and a server-wide ReadTimeout would also cancel /v1/sweep/stream
	// responses. 10 s is twice ReadHeaderTimeout and moves a full 1 MiB
	// body at 100 KB/s.
	bodyReadTimeout = 10 * time.Second
)

// Options configure a Server. The zero value serves on the in-process pool
// with default caps.
type Options struct {
	// Exp configures how misses are computed: Backend (pool or fabric)
	// and Cache (the cell-granularity layer under the response cache) —
	// exactly the choices cmd/simulate exposes.
	Exp exp.Options
	// MaxEntries and MaxBytes cap the rendered-response LRU; <= 0 picks the
	// defaults (16Ki entries, 256 MiB). The raw-body memo in front of it is
	// capped proportionally.
	MaxEntries int
	MaxBytes   int64
	// MaxCells bounds the grid size of an admitted spec (<= 0 means 4096):
	// a sweep's response is rendered whole, so unbounded grids would let one
	// request hold arbitrary memory.
	MaxCells int
	// MaxBodyBytes bounds the request body (<= 0 means 1 MiB).
	MaxBodyBytes int64
	// MaxInflight bounds concurrently *distinct* computations (<= 0 means
	// 4); excess misses are refused with 503 + Retry-After instead of piling
	// onto the backend. Coalesced joins of an existing flight are always
	// admitted — they cost no backend work.
	MaxInflight int
	// Logf receives operational events; nil discards them.
	Logf func(format string, args ...any)
}

// Server implements the results service; construct with New, mount via
// http.Server{Handler: s}, stop with Close.
type Server struct {
	opts    Options
	baseCtx context.Context
	cancel  context.CancelFunc

	// results maps canonical spec hash -> rendered response bytes; rawMemo
	// maps exact raw body bytes -> (canonical spec hash, parsed sweep), so
	// repeat bodies skip JSON entirely on a hit and can still start a
	// computation without re-parsing on a response-cache miss.
	results *lru.Cache[[]byte]
	rawMemo *lru.Cache[memoEntry]

	mu       sync.Mutex
	flights  map[string]*flight
	inflight int
	// backendDownUntil, when in the future, is the open backend-down
	// window: new computations are refused until it passes. backendFailures
	// counts consecutive backend-unavailable flights (the backoff
	// exponent); flightEWMA tracks recent flight durations in seconds (the
	// inflight-pressure Retry-After hint). See degrade.go.
	backendDownUntil time.Time
	backendFailures  int
	flightEWMA       float64

	bufPool sync.Pool
	// bodyTimeout is bodyReadTimeout and retryBase is backendRetryBase;
	// tests shorten them.
	bodyTimeout time.Duration
	retryBase   time.Duration

	requests       atomic.Int64
	hits           atomic.Int64
	coalesced      atomic.Int64
	computations   atomic.Int64
	rejected       atomic.Int64
	backendUnavail atomic.Int64
}

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = defaultMaxEntries
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = defaultMaxBytes
	}
	if opts.MaxCells <= 0 {
		opts.MaxCells = defaultMaxCells
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = defaultMaxInflight
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		baseCtx: ctx,
		cancel:  cancel,
		results: lru.New[[]byte](opts.MaxEntries, opts.MaxBytes),
		rawMemo: lru.New[memoEntry](min(opts.MaxEntries*2, defaultMemoEntries*4), defaultMemoBytes),
		flights: map[string]*flight{},

		bodyTimeout: bodyReadTimeout,
		retryBase:   backendRetryBase,
	}
	s.bufPool.New = func() any { b := make([]byte, 4096); return &b }
	return s
}

// Close cancels the server's base context, aborting in-flight computations.
// In-progress handlers finish with errors; the caches stay readable.
func (s *Server) Close() { s.cancel() }

// ServeHTTP routes the service's four endpoints. Routing is a direct path
// switch rather than a ServeMux: the cache-hit path is the product's hot
// loop and every allocation on it shows up at six figures of requests/sec.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/sweep":
		s.handleSweep(w, r)
	case "/v1/sweep/stream":
		s.handleStream(w, r)
	case "/v1/stats":
		s.handleStats(w, r)
	case "/healthz":
		io.WriteString(w, "ok\n")
	default:
		http.NotFound(w, r)
	}
}

// memoEntry is the rawMemo value: the canonical key plus the parsed sweep
// (a shallow struct copy — sweeps are read-only once admitted), so neither
// the hit path nor a later flight start touches the JSON decoder again.
type memoEntry struct {
	key string
	sw  exp.Sweep
}

// readSpec reads the request body into a pooled buffer, under a read
// deadline of bodyTimeout, and resolves it to (canonical key, parsed
// sweep). On the hot path — a body seen before — the raw-memo lookup
// resolves both without any JSON work.
func (s *Server) readSpec(w http.ResponseWriter, r *http.Request) (key string, sw exp.Sweep, ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST a sweep spec (the cmd/simulate grid JSON)", http.StatusMethodNotAllowed)
		return "", sw, false
	}
	cl := r.ContentLength
	if cl < 0 || cl > s.opts.MaxBodyBytes {
		s.rejected.Add(1)
		http.Error(w, fmt.Sprintf("spec body must declare Content-Length <= %d", s.opts.MaxBodyBytes), http.StatusRequestEntityTooLarge)
		return "", sw, false
	}
	bufp := s.bufPool.Get().(*[]byte)
	defer s.bufPool.Put(bufp)
	if int64(cap(*bufp)) < cl {
		*bufp = make([]byte, cl)
	}
	body := (*bufp)[:cl]
	// A recorder has no connection: both deadline calls return
	// http.ErrNotSupported and the body is read with no deadline.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.bodyTimeout))
	if _, err := io.ReadFull(r.Body, body); err != nil {
		// The deadline stays: net/http drains the unread body after the
		// handler, and the expired deadline is what makes that drain fail
		// at once and close the connection instead of waiting on the client.
		s.rejected.Add(1)
		http.Error(w, "short body: "+err.Error(), http.StatusBadRequest)
		return "", sw, false
	}
	// Cleared before anything is written, so it never cuts the response a
	// stream writes afterwards.
	_ = rc.SetReadDeadline(time.Time{})
	if m, hit := s.rawMemo.GetBytes(body); hit {
		return m.key, m.sw, true
	}
	sw, key, err := canonicalSpec(body, s.opts.MaxCells)
	if err != nil {
		s.rejected.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return "", sw, false
	}
	s.rawMemo.Put(string(body), memoEntry{key: key, sw: sw}, int64(len(body)+len(key)))
	return key, sw, true
}

// handleSweep is POST /v1/sweep: answer from the response cache, else join
// (or start) the flight for this spec and reply with its bytes.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	key, sw, ok := s.readSpec(w, r)
	if !ok {
		return
	}
	if resp, hit := s.results.Get(key); hit {
		s.hits.Add(1)
		writeJSONBytes(w, resp)
		return
	}
	f, status, err := s.getFlight(key, sw)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		http.Error(w, err.Error(), status)
		return
	}
	select {
	case <-f.done:
	case <-r.Context().Done():
		// The waiter is gone; the flight keeps computing on the server's
		// base context and its result still lands in the cache.
		return
	}
	if f.err != nil {
		if errors.Is(f.err, exp.ErrBackendUnavailable) {
			// The work is fine, the backend is gone: tell the client when to
			// come back instead of calling it a server error.
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			http.Error(w, f.err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, f.err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, f.resp)
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	inflight := s.inflight
	s.mu.Unlock()
	down, downLeft := s.backendDown()
	st := Stats{
		Requests:           s.requests.Load(),
		CacheHits:          s.hits.Load(),
		Coalesced:          s.coalesced.Load(),
		Computations:       s.computations.Load(),
		Rejected:           s.rejected.Load(),
		BackendUnavailable: s.backendUnavail.Load(),
		BackendDown:        down,
		Inflight:           inflight,
		Results:            s.results.Stats(),
		RawMemo:            s.rawMemo.Stats(),
	}
	if down {
		st.BackendRetryInSec = int(downLeft.Seconds()) + 1
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

// Stats is the /v1/stats payload: request-level counters plus the LRU
// counters of both cache layers, so "is the cache the right size" and "is
// coalescing working" are observable questions.
type Stats struct {
	// Requests counts sweep requests (both endpoints); CacheHits the ones
	// answered from the response cache; Coalesced the ones that joined an
	// existing flight; Computations the flights started (backend
	// submissions); Rejected the admission refusals.
	Requests     int64 `json:"requests"`
	CacheHits    int64 `json:"cacheHits"`
	Coalesced    int64 `json:"coalesced"`
	Computations int64 `json:"computations"`
	Rejected     int64 `json:"rejected"`
	// BackendUnavailable counts flights that failed because the compute
	// backend was unreachable; BackendDown reports an open backend-down
	// window (misses currently refused with 503 + Retry-After, cache hits
	// still served), with BackendRetryInSec the window's remainder.
	BackendUnavailable int64 `json:"backendUnavailable"`
	BackendDown        bool  `json:"backendDown"`
	BackendRetryInSec  int   `json:"backendRetryInSec,omitempty"`
	Inflight           int   `json:"inflight"`
	// Results and RawMemo are the LRU layers' counters (hits at this level
	// double-count CacheHits; evictions and occupancy are the news here).
	Results lru.Stats `json:"results"`
	RawMemo lru.Stats `json:"rawMemo"`
}

// canonicalSpec parses a sweep spec, refuses a grid of more than maxCells
// cells or a spec of more than maxSpecJobs simulated jobs, validates the
// spec and derives its canonical key: the hex SHA-256 of the *re-marshaled*
// sweep, so bodies differing only in whitespace, field order or JSON
// escaping coalesce to one identity.
func canonicalSpec(body []byte, maxCells int) (exp.Sweep, string, error) {
	var sw exp.Sweep
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return sw, "", fmt.Errorf("bad sweep spec: %w", err)
	}
	if dec.More() {
		return sw, "", fmt.Errorf("bad sweep spec: trailing data after the JSON object")
	}
	// The cap is checked on the axis lengths before Validate, which expands
	// the grid and checks every cell: an oversized grid is refused before a
	// single cell is built.
	n := sw.Grid.NumCells()
	if n > maxCells {
		return sw, "", fmt.Errorf("spec expands to %d cells, over the admission cap %d", n, maxCells)
	}
	if jobs := specJobs(sw, n); jobs > maxSpecJobs {
		return sw, "", fmt.Errorf("spec asks for %d simulated jobs (cells × reps × (warmup + jobs)), over the admission cap %d", jobs, int64(maxSpecJobs))
	}
	if err := sw.Validate(); err != nil {
		return sw, "", err
	}
	canon, err := json.Marshal(sw)
	if err != nil {
		return sw, "", fmt.Errorf("canonicalizing spec: %w", err)
	}
	sum := sha256.Sum256(canon)
	return sw, hex.EncodeToString(sum[:]), nil
}

// specJobs returns the simulated jobs of a spec over cells cells: cells ×
// reps × (warmup + jobs), the budget each replication hands
// sim.RunObserved, with warmup counted as 0 under autoWarmup. It saturates
// at math.MaxInt64 like Grid.NumCells. Negative budgets are left for
// Validate to refuse.
func specJobs(sw exp.Sweep, cells int) int64 {
	perRep := sw.Jobs
	if !sw.AutoWarmup {
		perRep = addSat(perRep, sw.Warmup)
	}
	return mulSat(mulSat(int64(cells), int64(max(sw.Reps, 1))), perRep)
}

func addSat(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func mulSat(a, b int64) int64 {
	if a > 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// writeJSONBytes writes a fully-rendered JSON response in one Write with an
// explicit Content-Length (no chunking on the hot path).
func writeJSONBytes(w http.ResponseWriter, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b)
}
