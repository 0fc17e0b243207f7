package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/serve"
)

// system is the service stack, in this process: a fabric dispatcher with
// two workers over loopback TCP, the results service on a loopback HTTP
// listener with the fabric as its backend, and a client that opens at most
// two connections.
type system struct {
	disp        *fabric.Dispatcher
	dispDone    chan error
	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup
	svc         *serve.Server
	http        *http.Server
	httpDone    chan error
	url         string
	client      *http.Client
	// cache is the traced cell cache, when there is one.
	cache *tracedCache
}

// startSystem stands the stack up and returns once both workers have
// joined the dispatcher. With cellCache the service gets an in-memory cell
// cache under its response cache. With a tracer, the handler, the backend
// and the cell cache are wrapped in spans.
func startSystem(opts serve.Options, cellCache bool, tr *tracer) (*system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &system{disp: fabric.NewDispatcher(fabric.DispatcherOptions{}), dispDone: make(chan error, 1)}
	go func() { s.dispDone <- s.disp.Serve(ln) }()
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	for i := range workers {
		w := &fabric.Worker{Dispatcher: addr, Name: fmt.Sprintf("bench-w%d", i+1)}
		s.workersDone.Add(1)
		go func() {
			defer s.workersDone.Done()
			w.Run(ctx)
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); s.disp.WorkerCount() < workers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("fabric workers did not join the dispatcher")
		}
	}

	var be exp.Backend = &fabric.Backend{Addr: addr, Name: "bench"}
	if tr != nil {
		be = tracedBackend{inner: be, tr: tr, name: "fabric.submit"}
	}
	opts.Exp.Backend = be
	if cellCache {
		opts.Exp.Cache = exp.NewMemCache()
		if tr != nil {
			s.cache = &tracedCache{inner: opts.Exp.Cache, tr: tr}
			opts.Exp.Cache = s.cache
		}
	}
	s.svc = serve.New(opts)
	var h http.Handler = s.svc
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.http = &http.Server{Handler: h}
	s.httpDone = make(chan error, 1)
	go func() { s.httpDone <- s.http.Serve(hl) }()
	s.url = "http://" + hl.Addr().String()
	s.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
	return s, nil
}

// close stops the stack and waits until every goroutine it started ends.
func (s *system) close() {
	if s.http != nil {
		s.http.Close()
		<-s.httpDone
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.stopWorkers()
	s.workersDone.Wait()
	s.disp.Close()
	<-s.dispDone
}

// reqRecord is one request as the client saw it. Times of the traced
// client hooks are tracer nanoseconds, written from the transport's
// goroutines.
type reqRecord struct {
	id    string
	kind  string // cold, warm, hit, variant or new
	ident string // identity of the spec, for verification
	spec  exp.Sweep
	body  []byte
	// verify marks a response to compare with the reference rendering:
	// each spec's first response, and a seeded sample of the rest.
	verify bool

	sched, send, done         time.Time
	gotConn, wrote, firstByte atomic.Int64
	sum                       [32]byte
	err                       error
}

// latency runs from the scheduled send time, so a stalled client or
// service charges its delay to every request it held up. A failed request
// misses every limit.
func (rec *reqRecord) latencyMs() float64 {
	if rec.err != nil {
		return inf
	}
	return float64(rec.done.Sub(rec.sched).Nanoseconds()) / 1e6
}

// do POSTs the request's spec and records its timing and response digest.
func (s *system) do(rec *reqRecord, tr *tracer) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/sweep", bytes.NewReader(rec.body))
	if err != nil {
		rec.err = err
		return
	}
	if tr != nil {
		req.Header.Set(reqHeader, rec.id)
		tr.specReq.Store(specKey(&rec.spec), rec.id)
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn:              func(httptrace.GotConnInfo) { rec.gotConn.Store(tr.ns(time.Now())) },
			WroteRequest:         func(httptrace.WroteRequestInfo) { rec.wrote.Store(tr.ns(time.Now())) },
			GotFirstResponseByte: func() { rec.firstByte.Store(tr.ns(time.Now())) },
		}))
	}
	rec.send = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		rec.done, rec.err = time.Now(), err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		rec.done, rec.err = time.Now(), fmt.Errorf("status %d: %s", resp.StatusCode, body)
		return
	}
	// Only a response that will be verified is kept and hashed, after the
	// clock stops; the rest is drained, so the harness takes as little CPU
	// from the service as it can.
	if !rec.verify {
		_, rec.err = io.Copy(io.Discard, resp.Body)
		rec.done = time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	rec.done, rec.err = time.Now(), err
	rec.sum = sha256.Sum256(body)
}

// openLoop sends each request at its scheduled offset (seconds from the
// phase start) whether or not earlier ones have finished, as independent
// users would, and returns once every request has ended.
func (s *system) openLoop(recs []*reqRecord, at []float64, tr *tracer) {
	start := time.Now()
	var wg sync.WaitGroup
	for i, rec := range recs {
		rec.sched = start.Add(time.Duration(at[i] * 1e9))
		time.Sleep(time.Until(rec.sched))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.do(rec, tr)
		}()
	}
	wg.Wait()
}

// closedLoop runs one caller per connection, each sending its next request
// as soon as the previous one returns, for the given seconds or until next
// runs out. next hands out requests in a fixed order, one caller at a
// time. So that the harness's own memory does not grow with the rate, it
// keeps only the requests that failed or whose response is verified, and
// counts the others. It returns those, the count, and the phase's length.
func (s *system) closedLoop(seconds float64, next func() *reqRecord, tr *tracer) (kept []*reqRecord, passed int, secs float64) {
	start := time.Now()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start).Seconds() < seconds {
				mu.Lock()
				rec := next()
				mu.Unlock()
				if rec == nil {
					return
				}
				rec.sched = time.Now()
				s.do(rec, tr)
				mu.Lock()
				if rec.verify || rec.err != nil {
					kept = append(kept, rec)
				} else {
					passed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return kept, passed, time.Since(start).Seconds()
}

// sendAll sends a fixed list of requests, one caller per connection.
func (s *system) sendAll(recs []*reqRecord) {
	i := 0
	s.closedLoop(inf, func() *reqRecord {
		if i == len(recs) {
			return nil
		}
		i++
		return recs[i-1]
	}, nil)
}

// stats fetches the service's /v1/stats counters.
func (s *system) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := s.client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// sampleQueue polls the dispatcher's queue depth until stop is closed and
// returns the deepest queue it saw.
func (s *system) sampleQueue(stop <-chan struct{}) <-chan int {
	out := make(chan int, 1)
	go func() {
		deepest := 0
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- deepest
				return
			case <-t.C:
				deepest = max(deepest, s.disp.QueueDepth())
			}
		}
	}()
	return out
}

// render computes a spec the reference way, exp.Run on the in-process pool
// rendered with WriteJSON, and returns the digest of the bytes.
func render(sw exp.Sweep) ([32]byte, error) {
	rs, err := exp.Run(context.Background(), sw, exp.Options{Backend: exp.PoolBackend{Workers: workers}})
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// verify checks the requests after the timed phase: a marked response
// must be byte-identical to the reference rendering of its spec. Every
// request counts as one checked operation; a failed one fails its check.
func (r *run) verify(recs []*reqRecord) error {
	want := map[string][32]byte{}
	for _, rec := range recs {
		if rec.err != nil || !rec.verify {
			r.check(rec.err)
			continue
		}
		sum, ok := want[rec.ident]
		if !ok {
			var err error
			if sum, err = render(rec.spec); err != nil {
				return fmt.Errorf("reference for %s: %w", rec.ident, err)
			}
			want[rec.ident] = sum
		}
		if sum != rec.sum {
			r.check(fmt.Errorf("%s (%s %s): response differs from exp.Run on the pool", rec.id, rec.kind, rec.ident))
			continue
		}
		r.check(nil)
	}
	return nil
}
