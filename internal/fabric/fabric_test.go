package fabric

// The in-test fabric harness: a real dispatcher and N real workers on
// loopback TCP, exercised through the public Backend/Client API, with
// scripted fault injection (a worker crashing mid-task, a flaky link that
// drops and reconnects, a worker frozen solid mid-task, a slow-loris
// handshake, a stale-version hello, a drifted Env probe). The correctness
// bar throughout is the one the repo pins for every backend: a fabric sweep
// must serialize byte-for-byte identically to the in-process pool, no
// matter which faults fired on the way.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/wire"
)

// fabricSweep is a small but multi-cell sweep (8 cells x 2 reps = 16
// tasks), sized so fault-injection tests still finish in well under a
// second per run.
func fabricSweep() exp.Sweep {
	return exp.Sweep{
		Name: "fabric",
		Grid: exp.Grid{
			K:        []int{2},
			Rho:      []float64{0.5, 0.7},
			MuI:      []float64{1, 2},
			MuE:      []float64{1},
			Policies: []string{"IF", "EF"},
		},
		Reps:   2,
		Warmup: 200,
		Jobs:   1_500,
	}
}

// startDispatcher serves a dispatcher on loopback and returns it with its
// address. It is torn down when the test ends.
func startDispatcher(t *testing.T, opts DispatcherOptions) (*Dispatcher, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(opts)
	done := make(chan error, 1)
	go func() { done <- d.Serve(ln) }()
	t.Cleanup(func() {
		d.Close()
		if err := <-done; err != nil {
			t.Errorf("dispatcher Serve: %v", err)
		}
	})
	return d, ln.Addr().String()
}

// startWorker runs w against the dispatcher until the test ends (or the
// worker stops itself: fault stop or handshake refusal).
func startWorker(t *testing.T, w *Worker) {
	t.Helper()
	if w.HeartbeatInterval == 0 {
		w.HeartbeatInterval = 50 * time.Millisecond
	}
	if w.ReconnectBackoff == 0 {
		w.ReconnectBackoff = 10 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := w.Run(ctx)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, errHandshakeRefused) {
			t.Errorf("worker %s: %v", w.Name, err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// runFabric runs sw through the fabric backend at addr.
func runFabric(t *testing.T, addr string, sw exp.Sweep) *exp.ResultSet {
	t.Helper()
	rs, err := exp.Run(context.Background(), sw, exp.Options{
		Backend: &Backend{Addr: addr, Name: sw.Name},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// resultJSON is the byte-identity probe: the full ResultSet serialization.
func resultJSON(t *testing.T, rs *exp.ResultSet) string {
	t.Helper()
	var b strings.Builder
	if err := rs.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFabricBitIdenticalToPool is the PR's correctness bar: the same sweep
// through a dispatcher and two TCP workers must produce a ResultSet whose
// JSON serialization is byte-for-byte the in-process pool's.
func TestFabricBitIdenticalToPool(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDispatcher(t, DispatcherOptions{})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w2"})

	fab := runFabric(t, addr, sw)
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("fabric ResultSet JSON differs from PoolBackend")
	}
	if d.Requeues() != 0 {
		t.Fatalf("healthy run re-queued %d tasks", d.Requeues())
	}
	if d.Handshakes() < 2 {
		t.Fatalf("want 2 worker handshakes, got %d", d.Handshakes())
	}
}

// TestFabricTaskKindsMatchPool runs every task kind through a dispatcher
// and two TCP workers and requires reflect.DeepEqual with the in-process
// pool: the Figure 4/5/6 drivers on the grids of exp's TestGoldenFigureCells,
// the Section 5 validation table, the busy-period ablation, the Theorem 3
// dominance traces, a tail sweep (p99 fields ride inside each replication)
// and a one-job cell whose idle class must stay JSON-encodable on the wire.
func TestFabricTaskKindsMatchPool(t *testing.T) {
	_, addr := startDispatcher(t, DispatcherOptions{})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w2"})

	ctx := context.Background()
	grid := []float64{0.5, 1.0, 2.0}
	simOpt := exp.SimOptions{Seed: 3, WarmupJobs: 500, MaxJobs: 5_000}
	sweepCells := func(sw exp.Sweep) func(exp.Backend) (any, error) {
		return func(be exp.Backend) (any, error) {
			rs, err := exp.Run(ctx, sw, exp.Options{Backend: be})
			if err != nil {
				return nil, err
			}
			return rs.Cells, nil
		}
	}
	tail := fabricSweep()
	tail.Tail = true
	tail.Grid.Rho = []float64{0.6}
	degenerate := exp.Sweep{
		Name: "degenerate",
		Grid: exp.Grid{K: []int{4}, Rho: []float64{0.9}, MuI: []float64{1}, MuE: []float64{1}, Policies: []string{"EF"}},
		Jobs: 1,
	}
	for _, tc := range []struct {
		name string
		run  func(exp.Backend) (any, error)
	}{
		{"figure4", func(be exp.Backend) (any, error) {
			return exp.Figure4(ctx, 4, 0.7, grid, exp.Options{Backend: be})
		}},
		{"figure5", func(be exp.Backend) (any, error) {
			return exp.Figure5(ctx, 4, 0.7, grid, exp.Options{Backend: be})
		}},
		{"figure6", func(be exp.Backend) (any, error) {
			return exp.Figure6(ctx, 0.8, 0.5, 1.0, []int{2, 4}, exp.Options{Backend: be})
		}},
		{"validate", func(be exp.Backend) (any, error) {
			return exp.ValidateAnalysis(ctx, 2, 0.6, []float64{1.0}, simOpt, exp.Options{Backend: be})
		}},
		{"ablation", func(be exp.Backend) (any, error) {
			return exp.BusyPeriodAblation(ctx, 2, 0.6, []float64{0.5, 1.5}, exp.Options{Backend: be})
		}},
		{"dominance", func(be exp.Backend) (any, error) {
			return exp.Dominance(ctx, exp.DominanceConfig{
				K: 2, Rho: 0.7, MuI: 1.5, MuE: 1.0,
				PolicyA: "IF", PolicyB: "EF", Arrivals: 3_000, Seeds: 3,
			}, exp.Options{Backend: be})
		}},
		{"tail", sweepCells(tail)},
		{"degenerate", sweepCells(degenerate)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool, err := tc.run(exp.PoolBackend{Workers: 2})
			if err != nil {
				t.Fatalf("pool: %v", err)
			}
			fab, err := tc.run(&Backend{Addr: addr, Name: tc.name})
			if err != nil {
				t.Fatalf("fabric: %v", err)
			}
			if !reflect.DeepEqual(pool, fab) {
				t.Fatalf("fabric differs from pool:\npool   %+v\nfabric %+v", pool, fab)
			}
		})
	}
}

// TestFabricWorkerKilledMidTask crashes a worker while it holds an
// un-answered assignment. The dispatcher must re-queue the in-flight task
// onto two healthy workers and the sweep must stay byte-identical to the
// pool. The doomed worker is the only one connected when the sweep starts,
// so the first assignment, the one it dies on, is sure to be its; the
// healthy workers connect once it has died. (Started together, the healthy
// pair could drain the sweep before the doomed worker got that assignment.)
func TestFabricWorkerKilledMidTask(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDispatcher(t, DispatcherOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	died := make(chan error, 1)
	go func() { died <- (&Worker{Dispatcher: addr, Name: "doomed", dieAfterAssigns: 1}).Run(ctx) }()
	type run struct {
		rs  *exp.ResultSet
		err error
	}
	ran := make(chan run, 1)
	go func() {
		rs, err := exp.Run(ctx, sw, exp.Options{Backend: &Backend{Addr: addr, Name: sw.Name}})
		ran <- run{rs, err}
	}()
	select {
	case err := <-died:
		if err != nil {
			t.Fatalf("doomed worker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the doomed worker got no assignment within 5s")
	}
	startWorker(t, &Worker{Dispatcher: addr, Name: "healthy1"})
	startWorker(t, &Worker{Dispatcher: addr, Name: "healthy2"})
	r := <-ran
	if r.err != nil {
		t.Fatal(r.err)
	}
	fab := r.rs
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("results differ after a worker died mid-task")
	}
	if d.Requeues() < 1 {
		t.Fatalf("worker died holding a task but Requeues = %d", d.Requeues())
	}
}

// TestDispatcherLiveRetryBudget pins the live retry budget: with
// MaxTaskAttempts 2, two workers crash one after another holding the same
// task. The first loss re-queues it; the second fails the job.
func TestDispatcherLiveRetryBudget(t *testing.T) {
	d, addr := startDispatcher(t, DispatcherOptions{MaxTaskAttempts: 2})
	sw := fabricSweep()
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Client{Addr: addr}).SubmitDetached(context.Background(), "budget", exp.Env{Sweep: &sw}, tasks[:1]); err != nil {
		t.Fatal(err)
	}
	job := func() JobStatus { return d.Jobs()[0] }

	startWorker(t, &Worker{Dispatcher: addr, Name: "lost1", dieAfterAssigns: 1})
	waitFor(t, "the first loss to re-queue the task", 5*time.Second, func() bool {
		return d.Requeues() == 1 && d.QueueDepth() == 1
	})
	if j := job(); j.State != JobRunning {
		t.Fatalf("after one loss against a budget of 2 the job is %s (%s), want running", j.State, j.Err)
	}

	startWorker(t, &Worker{Dispatcher: addr, Name: "lost2", dieAfterAssigns: 1})
	waitFor(t, "the second loss to fail the job", 5*time.Second, func() bool { return job().State == JobFailed })
	if j := job(); !strings.Contains(j.Err, "failed 2 times across worker losses") {
		t.Fatalf("budget-exhausted job error = %q", j.Err)
	}
	if d.Requeues() != 2 || d.QueueDepth() != 0 {
		t.Fatalf("after two losses: Requeues = %d, QueueDepth = %d, want 2 and 0", d.Requeues(), d.QueueDepth())
	}
}

// TestFabricWorkerReconnectResumes runs the whole sweep through a single
// flaky worker whose connection drops every three results. The reconnect
// loop must redial (several sessions on one Worker) and the sweep must
// complete, byte-identical.
func TestFabricWorkerReconnectResumes(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The flaky link forces a re-queue per drop; give the budget headroom
	// so no single task can exhaust it by bad luck.
	d, addr := startDispatcher(t, DispatcherOptions{MaxTaskAttempts: 10})
	w := &Worker{Dispatcher: addr, Name: "flaky", dropAfterResults: 3}
	startWorker(t, w)

	fab := runFabric(t, addr, sw)
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("results differ across reconnects")
	}
	if w.Sessions() < 2 {
		t.Fatalf("flaky worker should have reconnected: sessions = %d", w.Sessions())
	}
	if d.Handshakes() != w.Sessions() {
		t.Fatalf("dispatcher saw %d handshakes, worker counts %d sessions", d.Handshakes(), w.Sessions())
	}
}

// TestFabricFrozenWorkerReaped wedges a worker solid after its first
// assignment: it stops heartbeating and goes completely silent without
// dropping the connection. The heartbeat reaper must declare it dead after
// the timeout, re-queue its in-flight task, and let the healthy worker
// finish the sweep.
func TestFabricFrozenWorkerReaped(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDispatcher(t, DispatcherOptions{HeartbeatTimeout: 300 * time.Millisecond})
	startWorker(t, &Worker{Dispatcher: addr, Name: "healthy"})
	startWorker(t, &Worker{Dispatcher: addr, Name: "frozen", freezeAfterAssigns: 1})

	fab := runFabric(t, addr, sw)
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("results differ after a frozen worker was reaped")
	}
	if d.Requeues() < 1 {
		t.Fatalf("frozen worker held a task but Requeues = %d", d.Requeues())
	}
}

// TestFabricSlowWorkerNotReaped is the other half of the heartbeat
// contract: a worker that takes far longer than the heartbeat timeout to
// answer a task — but keeps heartbeating through it — must NOT be declared
// dead. The heartbeat interval (50ms) exceeds nothing; the task (~several
// hundred ms of simulated work behind a tiny timeout of 150ms) exceeds the
// timeout many times over.
func TestFabricSlowWorkerNotReaped(t *testing.T) {
	sw := fabricSweep()
	sw.Jobs = 40_000 // one task now far outlasts the 150ms heartbeat timeout
	sw.Grid.Rho = []float64{0.7}
	sw.Grid.MuI = []float64{2}
	pool, err := exp.Run(context.Background(), sw, exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDispatcher(t, DispatcherOptions{HeartbeatTimeout: 150 * time.Millisecond})
	w := &Worker{Dispatcher: addr, Name: "slow", HeartbeatInterval: 20 * time.Millisecond}
	startWorker(t, w)

	fab := runFabric(t, addr, sw)
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("slow-worker sweep differs from pool")
	}
	if d.Requeues() != 0 {
		t.Fatalf("slow-but-heartbeating worker was reaped: Requeues = %d", d.Requeues())
	}
	if w.Sessions() != 1 {
		t.Fatalf("slow worker should have kept one session, got %d", w.Sessions())
	}
}

// TestFabricReapDecisionFakeClock drives the dispatcher's reap decision
// directly with an injected clock — no real timers: a worker that has sent
// nothing for longer than the timeout is reaped the moment the (fake) clock
// says so, while a worker whose frames carry fresh timestamps is not.
func TestFabricReapDecisionFakeClock(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var offset atomic.Int64 // fake nanoseconds since base
	clock := func() time.Time { return base.Add(time.Duration(offset.Load())) }

	// A huge timeout keeps the real reapLoop irrelevant; only explicit
	// reapSilent calls below decide anything.
	d, addr := startDispatcher(t, DispatcherOptions{HeartbeatTimeout: time.Hour, Clock: clock})
	// The silent worker heartbeats "never" and must not redial once reaped.
	silent := &Worker{
		Dispatcher: addr, Name: "silent",
		HeartbeatInterval: time.Hour, ReconnectBackoff: time.Hour,
	}
	startWorker(t, silent)
	// The chatty worker keeps frames flowing; each one is stamped with the
	// current fake time by the dispatcher's read loop.
	chatty := &Worker{Dispatcher: addr, Name: "chatty", HeartbeatInterval: 10 * time.Millisecond}
	startWorker(t, chatty)
	waitFor(t, "both workers connected", 5*time.Second, func() bool { return d.WorkerCount() == 2 })

	// Advance the fake clock past the timeout, then give the chatty worker
	// a beat to stamp frames with the new time. The silent worker's last
	// frame is still at t=0.
	offset.Store(int64(2 * time.Hour))
	time.Sleep(60 * time.Millisecond)
	if n := d.reapSilent(clock()); n != 1 {
		t.Fatalf("reapSilent reaped %d workers, want exactly the silent one", n)
	}
	waitFor(t, "silent worker deregistered", 5*time.Second, func() bool { return d.WorkerCount() == 1 })

	// The survivor must still be serviceable.
	time.Sleep(30 * time.Millisecond)
	if n := d.reapSilent(clock()); n != 0 {
		t.Fatalf("heartbeating worker reaped: %d", n)
	}
}

// TestFabricStaleVersionRefused opens a raw connection speaking a future
// protocol version; the dispatcher must refuse the hello with a reason
// naming both versions rather than hand tasks to a binary it cannot trust.
func TestFabricStaleVersionRefused(t *testing.T) {
	d, addr := startDispatcher(t, DispatcherOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := wire.WriteFrame(bw, helloMsg{V: protoVersion + 1, Role: roleWorker, Name: "future", Probe: EnvProbe()}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	var ack helloAck
	if err := wire.ReadFrame(bufio.NewReader(conn), &ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK {
		t.Fatal("dispatcher accepted a future protocol version")
	}
	if !strings.Contains(ack.Err, "version") {
		t.Fatalf("refusal does not explain the version mismatch: %q", ack.Err)
	}
	if d.Refusals() != 1 {
		t.Fatalf("Refusals = %d, want 1", d.Refusals())
	}
}

// TestFabricEnvProbeDriftRefused connects a worker whose Env probe differs
// from the dispatcher's — the fingerprint a drifted binary would present.
// The refusal must be permanent: the worker must not sit in a reconnect
// loop hammering a dispatcher that will never accept it.
func TestFabricEnvProbeDriftRefused(t *testing.T) {
	d, addr := startDispatcher(t, DispatcherOptions{})
	w := &Worker{
		Dispatcher: addr, Name: "drifted",
		probeOverride: "v1|deadbeef|0000000000000000|0000000000000000",
	}
	err := w.Run(context.Background())
	if !errors.Is(err, errHandshakeRefused) {
		t.Fatalf("want errHandshakeRefused, got %v", err)
	}
	if !strings.Contains(err.Error(), "drift") {
		t.Fatalf("refusal does not explain the drift: %v", err)
	}
	if d.Refusals() != 1 {
		t.Fatalf("Refusals = %d, want 1 (no retry loop)", d.Refusals())
	}
	if d.Handshakes() != 0 {
		t.Fatalf("drifted worker completed a handshake")
	}
}

// TestFabricDeterministicTaskErrorNoRetry submits a task that fails
// deterministically (an unknown policy). The error must surface exactly
// once, carrying the cell and replication identity, with zero re-queues —
// retrying a deterministic failure would just fail again elsewhere.
func TestFabricDeterministicTaskErrorNoRetry(t *testing.T) {
	d, addr := startDispatcher(t, DispatcherOptions{})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})

	bad := exp.Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "NOPE"}
	sw := exp.Sweep{Name: "bad", Jobs: 100}
	tasks := []exp.Task{{Sim: &exp.TaskSpec{Cell: bad, Rep: 1, Seed: sw.RepSeed(bad, 1), Key: sw.Key(bad)}}}
	b := &Backend{Addr: addr}
	err := b.Submit(context.Background(), exp.Env{Sweep: &sw}, tasks, func(exp.TaskResult) error { return nil })
	if err == nil {
		t.Fatal("bad policy accepted")
	}
	for _, want := range []string{"cell", "rho=0.5", "rep 1", "NOPE"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not carry %q", err, want)
		}
	}
	if d.Requeues() != 0 {
		t.Fatalf("deterministic task error was retried: Requeues = %d", d.Requeues())
	}
}

// TestFabricSlowLorisHandshake holds connections open without ever
// completing a hello. The dispatcher must cut them off at the handshake
// deadline and stay fully serviceable for honest peers throughout.
func TestFabricSlowLorisHandshake(t *testing.T) {
	_, addr := startDispatcher(t, DispatcherOptions{HandshakeTimeout: 150 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Dribble a plausible frame prefix, then stall forever.
		if _, err := conn.Write([]byte("12")); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The dispatcher must hang up on us; a healthy handshake would
			// instead deliver an ack frame.
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 64)
			if n, err := conn.Read(buf); err == nil {
				t.Errorf("slow-loris connection got %d bytes instead of a hang-up", n)
			}
		}()
	}

	// With the loris connections still (at most) mid-timeout, honest
	// traffic must flow: a worker handshakes and a one-task sweep runs.
	startWorker(t, &Worker{Dispatcher: addr, Name: "honest"})
	sw := fabricSweep()
	sw.Grid.Rho = []float64{0.5}
	sw.Grid.MuI = []float64{1}
	sw.Reps = 1
	runFabric(t, addr, sw)
	wg.Wait()
}

// TestFabricClientDisconnectCancelsJob: an attached submission is owned by
// its client — when the client's context cancels mid-sweep, the Backend
// returns ctx.Err() and the dispatcher cancels the job instead of burning
// workers on results nobody will read.
func TestFabricClientDisconnectCancelsJob(t *testing.T) {
	d, addr := startDispatcher(t, DispatcherOptions{})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})

	sw := fabricSweep()
	sw.Jobs = 50_000 // long enough to still be running when canceled
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	_, err := exp.Run(ctx, sw, exp.Options{Backend: &Backend{Addr: addr}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitFor(t, "job canceled on dispatcher", 5*time.Second, func() bool {
		jobs := d.Jobs()
		return len(jobs) == 1 && jobs[0].State == JobCanceled
	})
}

// TestFabricDetachedLifecycleAndCache is the psq lifecycle: submit a sweep
// detached, watch it run to completion via List, then resubmit the same
// sweep attached and observe it answered from the dispatcher's outcome
// cache — byte-identical to a pool run — plus the cancel error paths.
func TestFabricDetachedLifecycleAndCache(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := openCache(t, filepath.Join(t.TempDir(), "outcomes.jsonl"))
	d, addr := startDispatcher(t, DispatcherOptions{Cache: cache})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w2"})

	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{Addr: addr}
	ctx := context.Background()
	id, err := cl.SubmitDetached(ctx, "warmup", exp.Env{Sweep: &sw}, tasks)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "detached job to finish", 30*time.Second, func() bool {
		jobs, err := cl.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.ID == id {
				return j.State == JobDone && j.Done == len(tasks)
			}
		}
		t.Fatalf("job %s missing from list", id)
		return false
	})
	if got := cache.OutcomeLen(); got != len(tasks) {
		t.Fatalf("detached run cached %d outcomes, want %d", got, len(tasks))
	}
	if got := d.Stats().CacheLen; got != len(tasks) {
		t.Fatalf("stats report cacheLen %d, want %d", got, len(tasks))
	}

	// The resubmission must be answered from the cache, bit-identical.
	fab := runFabric(t, addr, sw)
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("cache-served sweep differs from pool")
	}
	if d.CacheHits() != int64(len(tasks)) {
		t.Fatalf("CacheHits = %d, want %d", d.CacheHits(), len(tasks))
	}

	// Cancel error paths: unknown job is an error, finished job is a no-op.
	if err := cl.Cancel(ctx, "j999"); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("cancel of unknown job: %v", err)
	}
	if err := cl.Cancel(ctx, id); err != nil {
		t.Fatalf("cancel of finished job should be a no-op, got %v", err)
	}
	jobs, err := cl.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].State != JobDone || jobs[1].State != JobDone {
		t.Fatalf("unexpected final job list: %+v", jobs)
	}
}
