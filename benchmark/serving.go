package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
)

const (
	// coldRate is the open-loop request rate of serve-cold, per second:
	// low enough that requests rarely queue behind each other, so latency
	// is the cold path's own.
	coldRate = 100.0
	// coldWarm requests end each serve-cold set-up.
	coldWarm = 10
	// mixedRate is the open-loop request rate of serve-mixed, per second.
	mixedRate = 2000.0
	// catalogSize specs make up serve-mixed's popular set, twice the
	// response cache's resultsEntries, so the Zipf tail keeps evicting.
	catalogSize    = 512
	resultsEntries = 256
	zipfS          = 1.1
)

// smallSpec is the request shape of both serving workloads: 4 cells of 2
// replications of 1000 jobs, a few milliseconds of compute, so the
// service's and the fabric's own overhead is a large share of a miss.
func smallSpec(name string, seed uint64, policies ...string) exp.Sweep {
	return exp.Sweep{
		Name: name,
		Grid: exp.Grid{K: []int{4}, Rho: []float64{0.9}, MuI: []float64{0.5, 2}, MuE: []float64{1}, Policies: policies},
		Reps: 2, BaseSeed: seed, Warmup: 200, Jobs: 1000,
	}
}

// specBody is the spec's canonical JSON, as a client would send it.
func specBody(sw exp.Sweep) []byte {
	b, err := json.Marshal(sw)
	if err != nil {
		panic(fmt.Sprintf("marshaling a sweep: %v", err)) // plain structs always marshal
	}
	return b
}

// setUp stands the stack up setups times, running warm on each, times
// every set-up, and keeps the last stack for the timed phase.
func setUp(m *measurement, opts serve.Options, cellCache bool, tr *tracer, warm func(*system)) (*system, error) {
	var sys *system
	for i := range setups {
		start := time.Now()
		s, err := startSystem(opts, cellCache, tr)
		if err != nil {
			return nil, err
		}
		warm(s)
		m.setup = append(m.setup, time.Since(start).Seconds())
		if i < setups-1 {
			s.close()
		} else {
			sys = s
		}
	}
	return sys, nil
}

// phaseStats is what a traced open-loop phase observes besides spans.
type phaseStats struct {
	before, after serve.Stats
	queueMax      int
	requeues      int64
}

// openPhase runs the open-loop phase. Traced, it records spans during the
// phase only, samples the dispatcher's queue, and reads the service's
// counters before and after.
func openPhase(sys *system, recs []*reqRecord, at []float64, tr *tracer) (phaseStats, error) {
	var ps phaseStats
	if tr == nil {
		sys.openLoop(recs, at, nil)
		return ps, nil
	}
	var err error
	if ps.before, err = sys.stats(); err != nil {
		return ps, err
	}
	requeues := sys.disp.Requeues()
	stop := make(chan struct{})
	depth := sys.sampleQueue(stop)
	tr.active.Store(true)
	sys.openLoop(recs, at, tr)
	tr.active.Store(false)
	close(stop)
	ps.queueMax = <-depth
	ps.requeues = sys.disp.Requeues() - requeues
	ps.after, err = sys.stats()
	return ps, err
}

// capacityPhase measures, in traced runs, the highest rate a client on two
// connections sustains: a closed loop of next's requests for the given
// seconds. It returns the requests to verify.
func (r *run) capacityPhase(sys *system, seconds float64, next func() *reqRecord) []*reqRecord {
	kept, passed, secs := sys.closedLoop(seconds, next, nil)
	ok := passed
	for _, rec := range kept {
		if rec.err == nil {
			ok++
		}
	}
	r.attempted += int64(passed)
	r.put("client.capacity_per_s", float64(ok)/secs, "1/s", ok)
	return kept
}

// runCold is the cold-miss path: every request is a spec the service has
// never seen, so each one runs serve, exp.RunProgress, the fabric's wire
// and workers, the engine, aggregation and rendering. The timed phase is
// an open loop at coldRate.
func runCold(r *run, seconds float64, tr *tracer) (measurement, error) {
	var m measurement
	var all []*reqRecord
	next := func() *reqRecord {
		n := len(all)
		id := fmt.Sprintf("c%d", n)
		sw := smallSpec("cold", specSeed(r.seed, streamSpecSeeds, n), "IF", "EF")
		rec := &reqRecord{id: id, kind: "cold", ident: id, spec: sw, body: specBody(sw), verify: true}
		all = append(all, rec)
		return rec
	}
	// Set-up ends once both connections and both workers have served.
	warm := func(s *system) {
		recs := make([]*reqRecord, coldWarm)
		for i := range recs {
			recs[i] = next()
		}
		s.sendAll(recs)
	}
	sys, err := setUp(&m, serve.Options{}, false, tr, warm)
	if err != nil {
		return m, err
	}
	at := poissonSchedule(rng(r.seed, streamSchedule), coldRate, seconds)
	open := make([]*reqRecord, len(at))
	for i := range open {
		open[i] = next()
	}
	stopRSS := sampleRSS()
	ps, err := openPhase(sys, open, at, tr)
	m.rss = stopRSS()
	if err != nil {
		sys.close()
		return m, err
	}
	for _, rec := range open {
		m.lat = append(m.lat, rec.latencyMs())
	}
	if tr != nil {
		r.capacityPhase(sys, seconds/2, next) // its requests join all
		handlers, submits := r.putServeMetrics(open, ps, tr)
		r.putColdMetrics(open, handlers, submits, tr)
	}
	sys.close()
	return m, r.verify(all)
}

// runMixed is steady traffic over a popular catalog: Zipf popularity, 90%
// byte-identical repeats, 5% variants (the same spec re-serialized with
// another key order and whitespace, so the raw-body memo misses but the
// canonical key hits) and 5% new specs (half reuse a catalog spec's IF
// cells from the cell cache, half are fresh seeds). The response cache
// holds half the catalog, so the tail evicts. It exercises the hit path,
// canonicalization, eviction, the cell cache and coalescing, with light
// fabric load. The timed phase is an open loop at mixedRate.
func runMixed(r *run, seconds float64, tr *tracer) (measurement, error) {
	var m measurement
	cat := make([]*reqRecord, catalogSize)
	for i := range cat {
		sw := smallSpec("cat", specSeed(r.seed, streamSpecSeeds, i), "IF", "EF")
		cat[i] = &reqRecord{ident: fmt.Sprintf("cat-%d", i), spec: sw, body: specBody(sw)}
	}
	var all []*reqRecord
	// The catalog warms from least to most popular, so the popular head is
	// what the response cache holds when timing starts.
	warm := func(s *system) {
		recs := make([]*reqRecord, catalogSize)
		for i := range recs {
			c := cat[catalogSize-1-i]
			recs[i] = &reqRecord{id: fmt.Sprintf("w%d", len(all)+i), kind: "warm", ident: c.ident, spec: c.spec, body: c.body, verify: true}
		}
		s.sendAll(recs)
		all = append(all, recs...)
	}
	sys, err := setUp(&m, serve.Options{MaxEntries: resultsEntries}, true, tr, warm)
	if err != nil {
		return m, err
	}
	at := poissonSchedule(rng(r.seed, streamSchedule), mixedRate, seconds)
	gen := newMixGen(r.seed, "o", streamPicks, cat)
	open := make([]*reqRecord, len(at))
	for i := range open {
		open[i] = gen.next()
	}
	stopRSS := sampleRSS()
	ps, err := openPhase(sys, open, at, tr)
	m.rss = stopRSS()
	if err != nil {
		sys.close()
		return m, err
	}
	for _, rec := range open {
		m.lat = append(m.lat, rec.latencyMs())
	}
	check := append(all, open...)
	if tr != nil {
		check = append(check, r.capacityPhase(sys, seconds/2, newMixGen(r.seed, "c", streamClosedPicks, cat).next)...)
		handlers, submits := r.putServeMetrics(open, ps, tr)
		r.putMixedMetrics(open, handlers, submits, sys.cache, tr)
	}
	sys.close()
	return m, r.verify(check)
}

// mixGen draws serve-mixed's requests from one seeded stream. Request ids
// and new-spec identities carry the prefix, so two generators never clash.
type mixGen struct {
	seed     uint64
	prefix   string
	stream   uint64
	r        *rand.Rand
	zipf     func() int
	cat      []*reqRecord
	n, fresh int
}

func newMixGen(seed uint64, prefix string, stream uint64, cat []*reqRecord) *mixGen {
	r := rng(seed, stream)
	return &mixGen{seed: seed, prefix: prefix, stream: stream, r: r, zipf: zipfPicker(r, zipfS, len(cat)), cat: cat}
}

func (g *mixGen) next() *reqRecord {
	id := fmt.Sprintf("%s%d", g.prefix, g.n)
	check := sampled(g.seed^g.stream, g.n)
	g.n++
	c := g.cat[g.zipf()]
	switch u := g.r.Float64(); {
	case u < 0.90:
		return &reqRecord{id: id, kind: "hit", ident: c.ident, spec: c.spec, body: c.body, verify: check}
	case u < 0.95:
		return &reqRecord{id: id, kind: "variant", ident: c.ident, spec: c.spec, body: variantBody(c.body, g.r), verify: check}
	}
	ident := fmt.Sprintf("new-%s%d", g.prefix, g.fresh)
	sw := c.spec
	sw.Name = ident
	if g.fresh%2 == 0 {
		sw.Grid.Policies = []string{"IF", "EQUI"}
	} else {
		sw.BaseSeed = specSeed(g.seed, streamNewSeeds, int(g.stream)<<32|g.fresh)
	}
	g.fresh++
	return &reqRecord{id: id, kind: "new", ident: ident, spec: sw, body: specBody(sw), verify: true}
}

// variantBody re-serializes a JSON body with its object keys in a random
// order and random whitespace between tokens: the same spec, other bytes.
func variantBody(body []byte, r *rand.Rand) []byte {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		panic(fmt.Sprintf("re-reading a marshaled sweep: %v", err))
	}
	var buf bytes.Buffer
	writeShuffled(&buf, v, r)
	return buf.Bytes()
}

func writeShuffled(buf *bytes.Buffer, v any, r *rand.Rand) {
	space := func() { buf.WriteString(strings.Repeat(" ", r.IntN(3))) }
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			space()
			writeShuffled(buf, k, r)
			space()
			buf.WriteByte(':')
			space()
			writeShuffled(buf, x[k], r)
		}
		space()
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			space()
			writeShuffled(buf, e, r)
		}
		buf.WriteByte(']')
	default:
		b, err := json.Marshal(x)
		if err != nil {
			panic(fmt.Sprintf("re-marshaling a JSON scalar: %v", err))
		}
		buf.Write(b)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// putServeMetrics reports the layers both serving workloads share: the
// service's counters over the open-loop phase, the fabric submissions and
// the client's waits. It returns the handler span and the fabric
// submission of each request that had them.
func (r *run) putServeMetrics(open []*reqRecord, ps phaseStats, tr *tracer) (map[string]span, map[string]span) {
	handlers := map[string]span{}
	for _, s := range tr.named("serve.handler") {
		handlers[s.Req] = s
	}
	r.put("serve.requests", float64(len(handlers)), "count", 0)
	a, b := ps.after, ps.before
	hits, misses := a.Results.Hits-b.Results.Hits, a.Results.Misses-b.Results.Misses
	r.put("serve.results.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	r.put("serve.results.evictions", float64(a.Results.Evictions-b.Results.Evictions), "count", 0)
	hits, misses = a.RawMemo.Hits-b.RawMemo.Hits, a.RawMemo.Misses-b.RawMemo.Misses
	r.put("serve.rawmemo.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	reqs := a.Requests - b.Requests
	r.put("serve.coalesced_ratio", ratio(a.Coalesced-b.Coalesced, reqs), "ratio", int(reqs))
	r.put("serve.rejected", float64(a.Rejected-b.Rejected), "count", 0)

	// A submission of no tasks, a recomputed spec whose cells all sit in
	// the cell cache, never reaches the fabric.
	submits := map[string]span{}
	var subMs, firstMs []float64
	for _, s := range tr.named("fabric.submit") {
		if s.N == 0 {
			continue
		}
		submits[s.Req] = s
		subMs = append(subMs, float64(s.dur())/1e6)
		if s.First > 0 {
			firstMs = append(firstMs, float64(s.First-s.Start)/1e6)
		}
	}
	r.put("fabric.submits", float64(len(subMs)), "count", 0)
	r.putPct("fabric.submit_ms.p50", subMs, 50, "ms")
	r.putPct("fabric.submit_ms.p99", subMs, 99, "ms")
	r.putPct("fabric.first_result_ms.p50", firstMs, 50, "ms")
	r.put("fabric.queue_depth.max", float64(ps.queueMax), "count", 0)
	r.put("fabric.requeues", float64(ps.requeues), "count", 0)

	var lat, late, connWait []float64
	for _, rec := range open {
		lat = append(lat, rec.latencyMs())
		late = append(late, float64(rec.send.Sub(rec.sched).Nanoseconds())/1e6)
		if g := rec.gotConn.Load(); g > 0 {
			connWait = append(connWait, float64(g-tr.ns(rec.send))/1e6)
		}
	}
	r.putPct("client.latency_ms.p99", lat, 99, "ms")
	r.putPct("gen.late_ms.p99", late, 99, "ms")
	r.putPct("client.conn_wait_ms.p99", connWait, 99, "ms")
	return handlers, submits
}

// putColdMetrics reports where a cold request's time goes. Each part is
// measured on its own; what no part covers (writing the request body and
// reading the response body, mostly) is unattributed. The breakdown is the
// mean of each part over the middle fifth of requests by latency, so the
// parts add up to about the median latency.
func (r *run) putColdMetrics(open []*reqRecord, handlers, submits map[string]span, tr *tracer) {
	type row struct {
		parts [6]float64 // lateness, conn wait, loopback, serve self, fabric submit, unattributed
		total float64
	}
	var rows []row
	var handler, self, clientOver, overhead []float64
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for _, rec := range open {
		h, ok := handlers[rec.id]
		s, sok := submits[rec.id]
		if rec.err != nil || !ok || !sok || rec.firstByte.Load() == 0 {
			continue
		}
		send := tr.ns(rec.send)
		w := row{total: ms(tr.ns(rec.done) - tr.ns(rec.sched))}
		w.parts = [6]float64{
			ms(send - tr.ns(rec.sched)),
			ms(rec.gotConn.Load() - send),
			ms(rec.firstByte.Load() - rec.wrote.Load() - h.dur()),
			ms(selfTime(h, []span{s})),
			ms(s.dur()),
		}
		w.parts[5] = w.total - sum(w.parts[:5])
		rows = append(rows, w)
		handler = append(handler, ms(h.dur()))
		self = append(self, w.parts[3])
		clientOver = append(clientOver, ms(rec.done.Sub(rec.send).Nanoseconds()-h.dur()))
		if len(overhead) < 50 {
			if busy, err := taskBusyMs(rec.spec); err == nil {
				overhead = append(overhead, ms(s.dur())-busy/workers)
			}
		}
	}
	r.putPct("serve.handler_ms.cold.p50", handler, 50, "ms")
	r.putPct("serve.handler_ms.cold.p99", handler, 99, "ms")
	r.putPct("serve.self_ms.cold.p50", self, 50, "ms")
	r.putPct("client.overhead_ms.cold.p50", clientOver, 50, "ms")
	r.putPct("fabric.overhead_ms.p50", overhead, 50, "ms")
	if len(rows) == 0 {
		return
	}
	slices.SortFunc(rows, func(a, b row) int { return cmp.Compare(a.total, b.total) })
	band := rows[len(rows)*2/5 : max(len(rows)*3/5, len(rows)*2/5+1)]
	totals := make([]float64, len(rows))
	for i, w := range rows {
		totals[i] = w.total
	}
	parts := 0.0
	for i, name := range []string{"gen_late_ms", "conn_wait_ms", "loopback_ms", "serve_self_ms", "fabric_submit_ms", "unattributed_ms"} {
		v := 0.0
		for _, w := range band {
			v += w.parts[i] / float64(len(band))
		}
		r.put("breakdown.cold."+name, v, "ms", len(band))
		parts += v
	}
	r.put("breakdown.cold.client_ms", median(totals), "ms", len(totals))
	fmt.Fprintf(r.stdout, "%s breakdown: generator lateness + connection wait + loopback + serve self + fabric submit + unattributed = %.4g ms, median client latency %.4g ms\n",
		r.workload, parts, median(totals))
}

// taskBusyMs runs a spec's tasks one by one through exp.ExecuteTask, the
// executor fabric workers run, and returns their summed time.
func taskBusyMs(sw exp.Sweep) (float64, error) {
	tasks, err := sw.Tasks()
	if err != nil {
		return 0, err
	}
	env := exp.Env{Sweep: &sw}
	busy := 0.0
	for _, t := range tasks {
		start := time.Now()
		if _, err := exp.ExecuteTask(env, t); err != nil {
			return 0, err
		}
		busy += msSince(start)
	}
	return busy, nil
}

// putMixedMetrics reports serve-mixed's request kinds separately: the gap
// between variant and hit handler time is the canonicalization cost.
func (r *run) putMixedMetrics(open []*reqRecord, handlers, submits map[string]span, cache *tracedCache, tr *tracer) {
	byKind := map[string][]float64{}
	var hitHandler, hitSubmit float64
	for _, rec := range open {
		h, ok := handlers[rec.id]
		if !ok {
			continue
		}
		byKind[rec.kind] = append(byKind[rec.kind], float64(h.dur()))
		if rec.kind == "hit" {
			hitHandler += float64(h.dur())
			hitSubmit += float64(submits[rec.id].dur())
		}
	}
	scale := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x / by
		}
		return out
	}
	hit, variant, fresh := scale(byKind["hit"], 1e3), scale(byKind["variant"], 1e3), scale(byKind["new"], 1e6)
	r.putPct("serve.handler_us.hit.p50", hit, 50, "us")
	r.putPct("serve.handler_us.hit.p99", hit, 99, "us")
	r.putPct("serve.handler_us.variant.p50", variant, 50, "us")
	r.putPct("serve.handler_us.variant.p99", variant, 99, "us")
	r.putPct("serve.handler_ms.new.p99", fresh, 99, "ms")
	if hitHandler > 0 {
		r.put("serve.hit_submit_pct", 100*hitSubmit/hitHandler, "%", len(hit))
	}
	r.putPct("exp.cache.get_us.p50", scale(durMs(tr.named("exp.cache.get")), 1e-3), 50, "us")
	r.put("exp.cache.hit_ratio", ratio(cache.hits.Load(), cache.gets.Load()), "ratio", int(cache.gets.Load()))
}
