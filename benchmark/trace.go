package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent names the span that caused this one. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// First is when the first result of a backend submission arrived; N
	// counts the tasks it carried.
	First int64 `json:"first_ns,omitempty"`
	N     int   `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory and writes them out once the workload ends,
// so recording costs one lock and one append. It records only while
// active, which the workloads set for their timed phase alone.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	active atomic.Bool

	mu    sync.Mutex
	spans []span

	// reqSpan maps a request id to its serve.handler span id, and specReq a
	// spec's name and BaseSeed to the request that sent it, so a backend
	// submission running on the service's flight goroutine can name the
	// request it serves.
	reqSpan sync.Map
	specReq sync.Map
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) id() int64 { return t.nextID.Add(1) }

func (t *tracer) ns(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

func (t *tracer) record(s span) {
	if !t.active.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON line in dir/<workload>.trace.jsonl.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.jsonl"))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace write: %w", err)
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent and overlapping children count once.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.dur() - covered
}

// reqHeader carries the client's request id to the service.
const reqHeader = "X-Bench-Req"

// tracedHandler wraps the service's http.Handler in a serve.handler span.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req := r.Header.Get(reqHeader)
	id := th.tr.id()
	if req != "" {
		th.tr.reqSpan.Store(req, id)
	}
	start := time.Now()
	th.h.ServeHTTP(w, r)
	th.tr.record(span{ID: id, Name: "serve.handler", Req: req, Start: th.tr.ns(start), End: th.tr.ns(time.Now())})
}

// specKey names a generated spec for linking a submission to its request.
func specKey(sw *exp.Sweep) string {
	if sw == nil {
		return ""
	}
	return fmt.Sprintf("%s|%d", sw.Name, sw.BaseSeed)
}

// tracedBackend wraps an exp.Backend in a span per submission, recording
// when the first result arrived and, through the spec, which request the
// submission serves.
type tracedBackend struct {
	inner exp.Backend
	tr    *tracer
	name  string
}

func (b tracedBackend) Submit(ctx context.Context, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) error {
	s := span{ID: b.tr.id(), Name: b.name, N: len(tasks)}
	if v, ok := b.tr.specReq.Load(specKey(env.Sweep)); ok {
		s.Req = v.(string)
		if p, ok := b.tr.reqSpan.Load(s.Req); ok {
			s.Parent = p.(int64)
		}
	}
	start := time.Now()
	var first atomic.Int64
	err := b.inner.Submit(ctx, env, tasks, func(r exp.TaskResult) error {
		first.CompareAndSwap(0, b.tr.ns(time.Now()))
		return emit(r)
	})
	s.Start, s.End, s.First = b.tr.ns(start), b.tr.ns(time.Now()), first.Load()
	b.tr.record(s)
	return err
}

// timedPool is exp.PoolBackend with a span around every task: the same
// exp.Map fan-out over the same exp.ExecuteTask executor, so its results
// are byte-identical to the pool's.
type timedPool struct {
	workers int
	tr      *tracer
}

func (p timedPool) Submit(ctx context.Context, env exp.Env, tasks []exp.Task, emit func(exp.TaskResult) error) error {
	_, err := exp.Map(ctx, p.workers, len(tasks), func(i int) (struct{}, error) {
		start := time.Now()
		out, err := exp.ExecuteTask(env, tasks[i])
		p.tr.record(span{ID: p.tr.id(), Name: "exp.task", Attr: taskClass(tasks[i]), Start: p.tr.ns(start), End: p.tr.ns(time.Now())})
		if err != nil {
			return struct{}{}, err
		}
		return struct{}{}, emit(exp.TaskResult{Index: i, Outcome: out})
	})
	return err
}

// taskClass labels a task for the per-layer metrics: analysis points, and
// simulation replications split by occupancy (the rho 0.7 cells hold few
// jobs; the rho 0.98 cells hold tens, where stepping engines differ) and
// by policy.
func taskClass(t exp.Task) string {
	switch {
	case t.Analyze != nil:
		return "analyze"
	case t.Sim != nil && t.Sim.Cell.Rho >= 0.9:
		return "sim/high/" + t.Sim.Cell.Policy
	case t.Sim != nil:
		return "sim/low/" + t.Sim.Cell.Policy
	}
	return "other"
}

// tracedCache wraps the service's cell cache in spans and counts lookups.
type tracedCache struct {
	inner      exp.Cache
	tr         *tracer
	gets, hits atomic.Int64
}

func (c *tracedCache) Get(key string) (exp.CellResult, bool) {
	start := time.Now()
	cr, ok := c.inner.Get(key)
	c.tr.record(span{ID: c.tr.id(), Name: "exp.cache.get", Start: c.tr.ns(start), End: c.tr.ns(time.Now())})
	if c.tr.active.Load() {
		c.gets.Add(1)
		if ok {
			c.hits.Add(1)
		}
	}
	return cr, ok
}

func (c *tracedCache) Put(key string, cr exp.CellResult) error {
	start := time.Now()
	err := c.inner.Put(key, cr)
	c.tr.record(span{ID: c.tr.id(), Name: "exp.cache.put", Start: c.tr.ns(start), End: c.tr.ns(time.Now())})
	return err
}

// durMs returns the durations of spans in milliseconds.
func durMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e6
	}
	return out
}
