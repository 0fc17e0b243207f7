package fabric

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/wire"
)

// DispatcherOptions configure a Dispatcher. The zero value is usable.
type DispatcherOptions struct {
	// MaxTaskAttempts bounds how many times one task is attempted across
	// worker losses before its job fails; <= 0 means 3. A task *error*
	// (bad cell, panic) is never retried — errors are deterministic and
	// surface immediately; only worker loss triggers a retry. With a
	// Journal, the budget is unified across dispatcher restarts: an
	// interrupted grant replayed from the journal counts as a consumed
	// attempt.
	MaxTaskAttempts int
	// HeartbeatTimeout is the silence after which a connected worker is
	// declared dead, its connection closed, and its in-flight task
	// re-queued; <= 0 means 15s. Workers heartbeat while executing, so a
	// slow-but-alive worker is never reaped.
	HeartbeatTimeout time.Duration
	// TaskDeadline, when > 0, bounds one task execution end to end: an
	// assignment unanswered after this long closes the worker's connection
	// and funnels through the same re-queue path (and the same
	// MaxTaskAttempts budget) as a worker loss. Heartbeats keep a slow
	// worker alive past the heartbeat timeout, so this is the only bound
	// on a worker that is alive but wedged inside a task. 0 disables it.
	TaskDeadline time.Duration
	// Cache, when non-nil, memoizes task outcomes across jobs and clients,
	// keyed by exp.TaskKey: the dispatcher consults it before granting a
	// task (exp.CachedOutcome, so only an entry of the task's kind is a
	// hit) and fills it as results arrive, so a re-submitted sweep — from
	// any client — is answered without recomputation. Outcomes round-trip
	// JSON exactly, so a hit is bit-identical to a fresh execution.
	// fabricd -cache passes an exp.FileCache.
	Cache exp.OutcomeCache
	// Journal, when non-nil, makes the dispatcher durable: submissions,
	// grants, completions and cancellations are appended write-ahead to
	// the journal, and NewDispatcher replays the records the journal
	// loaded — rebuilding the job registry, re-queueing interrupted
	// in-flight tasks and restoring finished outcomes so re-attaching
	// clients can be answered. Without a journal the dispatcher behaves
	// exactly as before: in-memory only, attached jobs die with their
	// client.
	Journal *Journal
	// Logf receives operational events (worker joins, losses, re-queues);
	// nil discards them.
	Logf func(format string, args ...any)
	// Clock overrides the time source for liveness decisions (tests); nil
	// means time.Now.
	Clock func() time.Time
}

// handshakeTimeout bounds the hello exchange on a fresh connection, so a
// slow-loris peer (or a port scanner) cannot hold a connection open
// indefinitely without completing a handshake.
const handshakeTimeout = 5 * time.Second

// Dispatcher owns the fabric's task queue, job registry and result cache,
// and serves worker and client connections over TCP. See the package
// comment for the protocol; construct with NewDispatcher, run with Serve,
// stop with Close (or Drain then Close for a clean shutdown).
type Dispatcher struct {
	opts DispatcherOptions
	// handshakeTimeout is the constant handshakeTimeout; tests shorten it.
	handshakeTimeout time.Duration
	live             *liveness

	mu   sync.Mutex
	cond *sync.Cond
	ln   net.Listener
	// registry holds every job; apply is its one state machine.
	registry
	queue      []taskRef
	workers    map[int64]*workerLink
	conns      map[net.Conn]struct{}
	nextWorker int64
	inflight   int // tasks granted to workers and not yet concluded
	draining   bool
	closed     bool
	closedCh   chan struct{}

	requeues   atomic.Int64
	cacheHits  atomic.Int64
	handshakes atomic.Int64
	refusals   atomic.Int64
	expiries   atomic.Int64
}

// taskRef addresses one task of one job.
type taskRef struct {
	j   *job
	idx int
}

// job is one submitted batch.
type job struct {
	id    string
	ref   string
	name  string
	env   exp.Env
	tasks []exp.Task
	state string
	err   string
	done  int
	// attempts counts, per task, the grants without a matching done: the
	// executions a worker loss or a dispatcher crash interrupted, plus the
	// one in flight.
	attempts []int
	emitted  []bool
	// outs holds every finished outcome by task index, kept for the job's
	// lifetime so a client that re-attaches (same submit ref) after a
	// redial or a dispatcher restart can be streamed the tasks it missed.
	outs []*exp.Outcome
	// notify is closed and replaced under the dispatcher lock on every
	// state change a streaming client could care about (task finished,
	// terminal transition); stream loops snapshot it, drain outs, and
	// wait on the snapshot.
	notify chan struct{}
}

// unfinished reports whether task idx of j can still change: the job is
// running and the task is in range and not yet done.
func (j *job) unfinished(idx int) bool {
	return j.state == JobRunning && idx >= 0 && idx < len(j.tasks) && !j.emitted[idx]
}

// wake signals every streaming client of j; callers hold d.mu.
func (j *job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// registry is the dispatcher's job state: every job by ID, in submission
// order, and the submit refs that re-attach to them.
type registry struct {
	jobs     map[string]*job
	jobOrder []string
	refs     map[string]string // submit ref -> job id (idempotent resubmission)
	nextJob  int               // highest job number issued
}

func newRegistry() registry {
	return registry{jobs: make(map[string]*job), refs: make(map[string]string)}
}

// apply performs the job transition rec records and reports whether the
// registry changed. It is the one state machine of the fabric: the live
// dispatcher journals a record and then applies it under d.mu (step), and
// replay applies the journal's records in order (restoreRecords). Its
// guards make any record sequence safe to apply, which is what makes a
// torn, corrupt or duplicated journal replay to a consistent registry: the
// first submit of an ID wins, grant and done touch only running jobs and
// unfinished tasks, and terminal states stay terminal.
func (r *registry) apply(rec journalRecord) bool {
	switch {
	case rec.Submit != nil:
		s := rec.Submit
		if s.ID == "" || len(s.Tasks) == 0 || r.jobs[s.ID] != nil {
			return false
		}
		r.jobs[s.ID] = &job{
			id:       s.ID,
			ref:      s.Ref,
			name:     s.Name,
			env:      s.Env,
			tasks:    s.Tasks,
			state:    JobRunning,
			attempts: make([]int, len(s.Tasks)),
			emitted:  make([]bool, len(s.Tasks)),
			outs:     make([]*exp.Outcome, len(s.Tasks)),
			notify:   make(chan struct{}),
		}
		r.jobOrder = append(r.jobOrder, s.ID)
		if s.Ref != "" && r.refs[s.Ref] == "" {
			r.refs[s.Ref] = s.ID
		}
		if n, ok := jobNum(s.ID); ok && n > r.nextJob {
			r.nextJob = n
		}
	case rec.Grant != nil:
		j := r.jobs[rec.Grant.Job]
		if j == nil || !j.unfinished(rec.Grant.Idx) {
			return false
		}
		j.attempts[rec.Grant.Idx]++
	case rec.Done != nil:
		dn := rec.Done
		j := r.jobs[dn.Job]
		if j == nil || !j.unfinished(dn.Idx) {
			return false
		}
		out := dn.Out
		j.emitted[dn.Idx] = true
		j.done++
		j.outs[dn.Idx] = &out
		// The grant this completion answers was not interrupted.
		if j.attempts[dn.Idx] > 0 {
			j.attempts[dn.Idx]--
		}
		if j.done == len(j.tasks) {
			j.state = JobDone
		}
		j.wake()
	case rec.Fail != nil:
		return r.end(rec.Fail, JobFailed)
	case rec.Cancel != nil:
		return r.end(rec.Cancel, JobCanceled)
	default:
		return false // a shutdown record only informs CleanShutdown
	}
	return true
}

// end moves a running job to a terminal state with m's message.
func (r *registry) end(m *journalMark, state string) bool {
	j := r.jobs[m.Job]
	if j == nil || j.state != JobRunning {
		return false
	}
	j.state = state
	j.err = m.Msg
	j.wake()
	return true
}

// workerLink is one live worker connection.
type workerLink struct {
	id   int64
	name string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// results carries result frames from the read loop to the assignment
	// loop.
	results chan resultMsg
	// readDone closes when the read loop exits (connection lost).
	readDone chan struct{}
	// dead is set under the dispatcher lock when the connection is lost,
	// so a blocked task wait wakes and gives the slot up.
	dead bool
}

// NewDispatcher returns a dispatcher ready to Serve. When opts.Journal is
// set, the journal's loaded records are replayed first: jobs resume where
// the previous incarnation left them, with finished tasks restored and
// interrupted in-flight tasks re-queued (each consuming one retry attempt).
func NewDispatcher(opts DispatcherOptions) *Dispatcher {
	if opts.MaxTaskAttempts <= 0 {
		opts.MaxTaskAttempts = 3
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = 15 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	d := &Dispatcher{
		opts:             opts,
		handshakeTimeout: handshakeTimeout,
		live:             newLiveness(opts.HeartbeatTimeout),
		registry:         newRegistry(),
		workers:          make(map[int64]*workerLink),
		conns:            make(map[net.Conn]struct{}),
		closedCh:         make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	if opts.Journal != nil {
		d.replayJournal()
	}
	return d
}

// replayJournal rebuilds the registry from the journal loaded at open and
// re-queues the unfinished tasks of running jobs.
func (d *Dispatcher) replayJournal() {
	jl := d.opts.Journal
	recs := jl.records()
	st := restoreRecords(recs, d.opts.MaxTaskAttempts)
	d.registry = st.registry
	// Budget exhaustion discovered at replay is a real terminal
	// transition: journal it so the next incarnation agrees.
	for _, id := range st.failed {
		j := d.jobs[id]
		d.journalLocked(journalRecord{Fail: &journalMark{Job: id, Msg: j.err}})
		d.opts.Logf("fabric: job %s failed at replay: %s", id, j.err)
	}
	restored, requeued := 0, 0
	for _, id := range d.jobOrder {
		j := d.jobs[id]
		restored += j.done
		for i := range j.tasks {
			if j.unfinished(i) {
				d.queue = append(d.queue, taskRef{j: j, idx: i})
				requeued++
			}
		}
	}
	if msg := exp.CorruptWarning(jl.Path(), jl.Corrupt()); msg != "" {
		d.opts.Logf("%s", msg)
	}
	if len(recs) > 0 || jl.Corrupt() > 0 {
		d.opts.Logf("fabric: journal %s replayed: %d records (%d corrupt), %d jobs, %d finished tasks restored, %d tasks re-queued, clean shutdown %t",
			jl.Path(), len(recs), jl.Corrupt(), len(d.jobOrder), restored, requeued, jl.CleanShutdown())
	}
}

// step journals rec write-ahead and applies it: the live half of the one
// state machine. Callers hold d.mu.
func (d *Dispatcher) step(rec journalRecord) bool {
	d.journalLocked(rec)
	return d.apply(rec)
}

// journalLocked appends one record write-ahead; callers hold d.mu. Append
// failures are logged and tolerated: the journal is an optimization to
// replay after a crash, never a gate on live progress — losing a record
// only means the affected task re-runs (idempotently) after a restart.
func (d *Dispatcher) journalLocked(rec journalRecord) {
	if d.opts.Journal == nil {
		return
	}
	if err := d.opts.Journal.appendRecord(rec); err != nil {
		d.opts.Logf("fabric: journal: %v", err)
	}
}

func (d *Dispatcher) now() time.Time { return d.opts.Clock() }

// Serve accepts connections on ln until Close. It owns ln and closes it on
// return.
func (d *Dispatcher) Serve(ln net.Listener) error {
	defer ln.Close()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.ln = ln
	d.mu.Unlock()
	go d.reapLoop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-d.closedCh:
				return nil
			default:
			}
			return fmt.Errorf("fabric: accept: %w", err)
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = struct{}{}
		d.mu.Unlock()
		go d.handleConn(conn)
	}
}

// Close stops the dispatcher: the listener and every live connection are
// closed and all handler goroutines unblock. Running jobs are left in
// their current state; with a journal, the next incarnation replays them.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.closedCh)
	ln := d.ln
	conns := make([]net.Conn, 0, len(d.conns))
	for c := range d.conns {
		conns = append(conns, c)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// Drain performs the graceful half of a shutdown: new grants (and new
// submissions) stop, in-flight tasks are given until timeout to conclude,
// and — when everything concluded in time — a clean-shutdown record is
// journaled so the next incarnation knows no grant was interrupted.
// Callers follow with Close; timeout <= 0 means 30s.
func (d *Dispatcher) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	d.mu.Lock()
	if d.closed || d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	d.cond.Broadcast() // idle workers give their slot up and disconnect
	n := d.inflight
	d.mu.Unlock()
	d.opts.Logf("fabric: draining: %d task(s) in flight", n)
	deadline := time.Now().Add(timeout)
	for {
		d.mu.Lock()
		n = d.inflight
		d.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			d.opts.Logf("fabric: drain timed out with %d task(s) still in flight", n)
			return fmt.Errorf("fabric: drain timed out with %d task(s) in flight", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.mu.Lock()
	d.journalLocked(journalRecord{Shutdown: true})
	d.mu.Unlock()
	d.opts.Logf("fabric: drained cleanly")
	return nil
}

// Requeues reports how many in-flight tasks were re-queued after a worker
// loss.
func (d *Dispatcher) Requeues() int64 { return d.requeues.Load() }

// CacheHits reports how many tasks were answered from the outcome cache.
func (d *Dispatcher) CacheHits() int64 { return d.cacheHits.Load() }

// Handshakes reports how many worker hellos were accepted (a worker that
// reconnects counts once per connection).
func (d *Dispatcher) Handshakes() int64 { return d.handshakes.Load() }

// Refusals reports how many hellos were refused (version or probe drift).
func (d *Dispatcher) Refusals() int64 { return d.refusals.Load() }

// DeadlineExpiries reports how many assignments were abandoned because the
// per-task execution deadline (TaskDeadline) expired.
func (d *Dispatcher) DeadlineExpiries() int64 { return d.expiries.Load() }

// WorkerCount reports the number of currently connected workers.
func (d *Dispatcher) WorkerCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.workers)
}

// QueueDepth reports the number of queued, not-yet-assigned tasks.
func (d *Dispatcher) QueueDepth() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.queue)
}

// Stats snapshots the dispatcher's operational counters — the payload of a
// psq stats request. Cache occupancy is included when the outcome cache
// reports one (exp.FileCache's OutcomeLen).
func (d *Dispatcher) Stats() StatsReply {
	d.mu.Lock()
	st := StatsReply{
		Workers:    len(d.workers),
		QueueDepth: len(d.queue),
		Jobs:       len(d.jobs),
	}
	d.mu.Unlock()
	st.CacheHits = d.cacheHits.Load()
	st.Requeues = d.requeues.Load()
	st.Handshakes = d.handshakes.Load()
	st.Refusals = d.refusals.Load()
	st.DeadlineExpiries = d.expiries.Load()
	if c, ok := d.opts.Cache.(interface{ OutcomeLen() int }); ok {
		st.CacheLen = c.OutcomeLen()
	}
	return st
}

// Jobs reports every job in submission order.
func (d *Dispatcher) Jobs() []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.jobOrder))
	for _, id := range d.jobOrder {
		j := d.jobs[id]
		out = append(out, JobStatus{
			ID: j.id, Name: j.name, State: j.state,
			Done: j.done, Total: len(j.tasks), Err: j.err,
		})
	}
	return out
}

// reapLoop periodically reaps silent workers. The tick only drives
// *when* the check runs; the decision itself is reapSilent over d.now(),
// so tests drive it directly with a fake clock.
func (d *Dispatcher) reapLoop() {
	interval := d.opts.HeartbeatTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.closedCh:
			return
		case <-t.C:
			d.reapSilent(d.now())
		}
	}
}

// reapSilent closes the connection of every worker whose last frame is
// older than the heartbeat timeout. Closing the connection funnels the
// death through the same path as a network drop: the worker's read loop
// errors, the assignment loop re-queues the in-flight task, and the slot
// is released.
func (d *Dispatcher) reapSilent(now time.Time) int {
	n := 0
	for _, id := range d.live.expired(now) {
		d.mu.Lock()
		w := d.workers[id]
		d.mu.Unlock()
		d.live.drop(id)
		if w == nil {
			continue
		}
		d.opts.Logf("fabric: worker %s silent for > %v, declaring dead", w.name, d.opts.HeartbeatTimeout)
		w.conn.Close()
		n++
	}
	return n
}

// handleConn performs the handshake and dispatches by role.
func (d *Dispatcher) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
	}()
	// The handshake deadline uses the real clock, not opts.Clock: socket
	// deadlines are interpreted against real time by the runtime, and Clock
	// only virtualizes liveness decisions.
	conn.SetDeadline(time.Now().Add(d.handshakeTimeout))
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var hello helloMsg
	if err := wire.ReadFrame(br, &hello); err != nil {
		return // slow-loris, port scan, or peer gave up: drop silently
	}
	refuse := func(format string, args ...any) {
		d.refusals.Add(1)
		msg := fmt.Sprintf(format, args...)
		d.opts.Logf("fabric: refusing %s hello from %s: %s", hello.Role, conn.RemoteAddr(), msg)
		wire.WriteFrame(bw, helloAck{Err: msg})
		bw.Flush()
	}
	if hello.V != protoVersion {
		refuse("protocol version mismatch: dispatcher speaks v%d, peer speaks v%d (rebuild the older binary)", protoVersion, hello.V)
		return
	}
	switch hello.Role {
	case roleWorker:
		if probe := EnvProbe(); hello.Probe != probe {
			refuse("env drift: worker %q derives %q for the probe cell, dispatcher derives %q — the worker binary would compute different seeds/keys, refusing to hand it tasks", hello.Name, hello.Probe, probe)
			return
		}
	case roleClient:
		// Version check above is all a client needs.
	default:
		refuse("unknown role %q", hello.Role)
		return
	}
	if err := wire.WriteFrame(bw, helloAck{OK: true}); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	conn.SetDeadline(time.Time{}) // liveness takes over from here
	if hello.Role == roleWorker {
		d.handshakes.Add(1)
		d.handleWorker(conn, br, bw, hello)
		return
	}
	d.handleClient(conn, br, bw)
}

// handleWorker runs the assignment loop of one worker connection: pull a
// task, send it, wait for the result or the connection's death, repeat.
func (d *Dispatcher) handleWorker(conn net.Conn, br *bufio.Reader, bw *bufio.Writer, hello helloMsg) {
	d.mu.Lock()
	d.nextWorker++
	w := &workerLink{
		id:   d.nextWorker,
		name: fmt.Sprintf("%s@%s", hello.Name, conn.RemoteAddr()),
		conn: conn, br: br, bw: bw,
		results:  make(chan resultMsg, 1),
		readDone: make(chan struct{}),
	}
	d.workers[w.id] = w
	d.mu.Unlock()
	d.live.seen(w.id, d.now())
	d.opts.Logf("fabric: worker %s connected", w.name)
	defer func() {
		d.mu.Lock()
		delete(d.workers, w.id)
		d.mu.Unlock()
		d.live.drop(w.id)
		conn.Close()
		d.opts.Logf("fabric: worker %s gone", w.name)
	}()
	go d.workerReadLoop(w)

	var seq int64
	for {
		ref, ok := d.nextTask(w)
		if !ok {
			return
		}
		seq++
		if err := d.sendAssign(w, assignMsg{Seq: seq, Env: ref.j.env, Task: ref.j.tasks[ref.idx]}); err != nil {
			d.grantConcluded()
			d.requeueOnLoss(ref, w, fmt.Errorf("send failed: %w", err))
			return
		}
		res, cause := d.awaitResult(w, seq)
		d.grantConcluded()
		if cause != nil {
			d.requeueOnLoss(ref, w, cause)
			return
		}
		if res.Err != "" {
			// Deterministic task failure: never retried, surfaces once as
			// the job's error — the same contract as every other backend.
			d.failJob(ref.j, res.Err)
			continue
		}
		d.finishTask(ref, res.Out)
	}
}

// grantConcluded releases one in-flight grant (result, loss, or deadline)
// and wakes Drain waiters.
func (d *Dispatcher) grantConcluded() {
	d.mu.Lock()
	d.inflight--
	d.cond.Broadcast()
	d.mu.Unlock()
}

// workerReadLoop drains frames from one worker: every frame refreshes
// liveness, results are forwarded to the assignment loop. On read error it
// marks the link dead and wakes any blocked task wait.
func (d *Dispatcher) workerReadLoop(w *workerLink) {
	for {
		var m workerMsg
		if err := wire.ReadFrame(w.br, &m); err != nil {
			d.mu.Lock()
			w.dead = true
			d.cond.Broadcast()
			d.mu.Unlock()
			close(w.readDone)
			w.conn.Close()
			return
		}
		d.live.seen(w.id, d.now())
		if m.Result != nil {
			select {
			case w.results <- *m.Result:
			default:
				// A result with no assignment outstanding: protocol abuse;
				// drop it.
			}
		}
	}
}

// sendAssign writes one assignment frame.
func (d *Dispatcher) sendAssign(w *workerLink, a assignMsg) error {
	if err := wire.WriteFrame(w.bw, a); err != nil {
		return err
	}
	return w.bw.Flush()
}

// awaitResult waits for the result of the outstanding assignment, the death
// of the connection, the per-task deadline, or dispatcher shutdown. A nil
// cause means res is the answer; a non-nil cause is the reason the
// assignment concluded without one (the task is then re-queued against its
// attempt budget). When the connection dies with a result already delivered
// (the worker answered and dropped in the same instant), the result wins —
// the task completed.
func (d *Dispatcher) awaitResult(w *workerLink, seq int64) (res resultMsg, cause error) {
	// The deadline uses the real clock for the same reason socket deadlines
	// do; opts.Clock only virtualizes liveness decisions.
	var expired <-chan time.Time
	if d.opts.TaskDeadline > 0 {
		t := time.NewTimer(d.opts.TaskDeadline)
		defer t.Stop()
		expired = t.C
	}
	for {
		select {
		case res := <-w.results:
			if res.Seq != seq {
				d.opts.Logf("fabric: worker %s answered seq %d for assignment %d (protocol desync), dropping worker", w.name, res.Seq, seq)
				w.conn.Close()
				return resultMsg{}, fmt.Errorf("protocol desync (answered seq %d for %d)", res.Seq, seq)
			}
			return res, nil
		case <-w.readDone:
			select {
			case res := <-w.results:
				if res.Seq == seq {
					return res, nil
				}
			default:
			}
			return resultMsg{}, fmt.Errorf("connection lost mid-task")
		case <-expired:
			d.expiries.Add(1)
			d.opts.Logf("fabric: worker %s exceeded the %v task deadline, dropping worker", w.name, d.opts.TaskDeadline)
			w.conn.Close()
			return resultMsg{}, fmt.Errorf("task deadline %v exceeded", d.opts.TaskDeadline)
		case <-d.closedCh:
			return resultMsg{}, fmt.Errorf("dispatcher shut down")
		}
	}
}

// nextTask blocks until a runnable task is available and claims it for w,
// journaling the grant write-ahead. Tasks of finished (failed, canceled)
// jobs are discarded on the way; cache hits are answered immediately
// without occupying the worker. ok is false when the dispatcher closed or
// is draining, or the worker died.
func (d *Dispatcher) nextTask(w *workerLink) (taskRef, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed || d.draining || w.dead {
			return taskRef{}, false
		}
		for len(d.queue) > 0 {
			ref := d.queue[0]
			d.queue = d.queue[1:]
			if !ref.j.unfinished(ref.idx) {
				continue // its job ended while the task waited
			}
			if d.opts.Cache != nil {
				if out, hit := exp.CachedOutcome(d.opts.Cache, ref.j.tasks[ref.idx]); hit {
					d.cacheHits.Add(1)
					d.step(journalRecord{Done: &journalDone{Job: ref.j.id, Idx: ref.idx, Out: out}})
					continue
				}
			}
			d.step(journalRecord{Grant: &journalGrant{Job: ref.j.id, Idx: ref.idx}})
			d.inflight++
			return ref, true
		}
		d.cond.Wait()
	}
}

// requeueOnLoss returns a lost worker's in-flight task to the queue,
// failing the job when the task has exhausted its attempt budget. The lost
// grant stays counted in the task's attempts: it has no matching done.
func (d *Dispatcher) requeueOnLoss(ref taskRef, w *workerLink, cause error) {
	d.requeues.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	j := ref.j
	if !j.unfinished(ref.idx) {
		return // its job ended while the task was out
	}
	if n := j.attempts[ref.idx]; n >= d.opts.MaxTaskAttempts {
		d.failJobLocked(j, fmt.Sprintf("fabric: %s failed %d times across worker losses (last worker %s: %v)",
			j.tasks[ref.idx].Label(), n, w.name, cause))
		return
	}
	d.opts.Logf("fabric: re-queueing %s after loss of worker %s (attempt %d/%d)",
		j.tasks[ref.idx].Label(), w.name, j.attempts[ref.idx], d.opts.MaxTaskAttempts)
	d.queue = append(d.queue, ref)
	d.cond.Broadcast()
}

// finishTask records one task a worker finished: caches the outcome, then
// journals and applies the completion, which stores it for streaming
// clients and closes the job when it was the last (apply drops the late
// result of a canceled or failed job).
func (d *Dispatcher) finishTask(ref taskRef, out exp.Outcome) {
	if d.opts.Cache != nil {
		if key, ok := exp.TaskKey(ref.j.tasks[ref.idx]); ok {
			if err := d.opts.Cache.PutOutcome(key, out); err != nil {
				d.opts.Logf("fabric: caching %s: %v", ref.j.tasks[ref.idx].Label(), err)
			}
		}
	}
	d.mu.Lock()
	d.step(journalRecord{Done: &journalDone{Job: ref.j.id, Idx: ref.idx, Out: out}})
	d.mu.Unlock()
}

// failJob moves a job to the failed state (deterministic task error or
// exhausted retry budget); the attached client, if any, is woken with the
// error.
func (d *Dispatcher) failJob(j *job, msg string) {
	d.mu.Lock()
	d.failJobLocked(j, msg)
	d.mu.Unlock()
}

func (d *Dispatcher) failJobLocked(j *job, msg string) {
	if d.step(journalRecord{Fail: &journalMark{Job: j.id, Msg: msg}}) {
		d.opts.Logf("fabric: job %s failed: %s", j.id, msg)
	}
}

// cancelJob moves a job to the canceled state; queued tasks are discarded
// lazily and in-flight results dropped.
func (d *Dispatcher) cancelJob(j *job, reason string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.step(journalRecord{Cancel: &journalMark{Job: j.id, Msg: "canceled: " + reason}}) {
		d.opts.Logf("fabric: job %s canceled (%s)", j.id, reason)
	}
}

// submitJob registers a batch as a new job and queues its tasks, journaling
// the full spec write-ahead. A submission whose Ref matches a live job is a
// re-attach, not a new job: the existing job is returned (reattached true)
// and nothing is queued — this is what makes client redial idempotent
// across connection losses and dispatcher restarts.
func (d *Dispatcher) submitJob(req *submitReq) (j *job, reattached bool, err error) {
	if len(req.Tasks) == 0 {
		return nil, false, fmt.Errorf("fabric: empty task batch")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, false, fmt.Errorf("fabric: dispatcher is shut down")
	}
	if req.Ref != "" {
		if id, ok := d.refs[req.Ref]; ok {
			j := d.jobs[id]
			d.opts.Logf("fabric: job %s re-attached (ref %s)", j.id, req.Ref)
			return j, true, nil
		}
	}
	if d.draining {
		return nil, false, fmt.Errorf("fabric: dispatcher is draining")
	}
	id := fmt.Sprintf("j%d", d.nextJob+1)
	d.step(journalRecord{Submit: &journalSubmit{ID: id, Ref: req.Ref, Name: req.Name, Env: req.Env, Tasks: req.Tasks}})
	j = d.jobs[id]
	for i := range j.tasks {
		d.queue = append(d.queue, taskRef{j: j, idx: i})
	}
	d.cond.Broadcast()
	d.opts.Logf("fabric: job %s (%s): %d tasks queued (detach=%t)", j.id, j.name, len(j.tasks), req.Detach)
	return j, false, nil
}

// handleClient serves one client request: submit (attached or detached),
// list, or cancel.
func (d *Dispatcher) handleClient(conn net.Conn, br *bufio.Reader, bw *bufio.Writer) {
	reply := func(resp clientResp) bool {
		if err := wire.WriteFrame(bw, resp); err != nil {
			return false
		}
		return bw.Flush() == nil
	}
	var req clientReq
	if err := wire.ReadFrame(br, &req); err != nil {
		return
	}
	switch {
	case req.List:
		reply(clientResp{Jobs: d.Jobs(), OK: true})
	case req.Stats:
		st := d.Stats()
		reply(clientResp{Stats: &st, OK: true})
	case req.Cancel != "":
		d.mu.Lock()
		j := d.jobs[req.Cancel]
		d.mu.Unlock()
		if j == nil {
			reply(clientResp{Err: fmt.Sprintf("fabric: unknown job %q", req.Cancel)})
			return
		}
		d.cancelJob(j, "psq cancel")
		reply(clientResp{OK: true})
	case req.Submit != nil:
		d.serveSubmit(conn, br, reply, req.Submit)
	default:
		reply(clientResp{Err: "fabric: empty client request"})
	}
}

// clientGone handles an attached client's disconnection. Without a journal
// an attached client owns its submission, so the job is canceled — the
// historical contract. With a journal the job survives: the client is
// expected to redial and re-attach by ref (and the work is durable anyway),
// so cancellation only ever happens explicitly.
func (d *Dispatcher) clientGone(j *job, how string) {
	if d.opts.Journal == nil {
		d.cancelJob(j, how)
		return
	}
	d.opts.Logf("fabric: %s from job %s; job continues (journaled, re-attach by ref)", how, j.id)
}

// serveSubmit registers (or, by ref, re-attaches to) the job and, for
// attached submissions, streams its results until the job finishes or the
// client goes away. Results are streamed from the job's outs snapshot, so
// a re-attaching client first catches up on everything it missed and then
// follows live completions.
func (d *Dispatcher) serveSubmit(conn net.Conn, br *bufio.Reader, reply func(clientResp) bool, req *submitReq) {
	j, _, err := d.submitJob(req)
	if err != nil {
		reply(clientResp{Err: err.Error()})
		return
	}
	if !reply(clientResp{Submitted: j.id}) {
		if !req.Detach {
			d.clientGone(j, "client disconnected")
		}
		return
	}
	if req.Detach {
		return
	}
	// Watch for the client hanging up: it sends nothing after the submit,
	// so any read completion means the connection is gone.
	connGone := make(chan struct{})
	go func() {
		var discard clientReq
		for {
			if err := wire.ReadFrame(br, &discard); err != nil {
				close(connGone)
				return
			}
		}
	}()
	sent := make([]bool, len(j.tasks))
	for {
		d.mu.Lock()
		var batch []streamMsg
		for i, out := range j.outs {
			if out != nil && !sent[i] {
				batch = append(batch, streamMsg{Index: i, Out: *out})
				sent[i] = true
			}
		}
		state, errMsg := j.state, j.err
		notify := j.notify
		d.mu.Unlock()
		for i := range batch {
			if !reply(clientResp{Result: &batch[i]}) {
				d.clientGone(j, "client disconnected mid-stream")
				return
			}
		}
		if state != JobRunning {
			reply(clientResp{Done: &doneMsg{Err: errMsg}})
			return
		}
		select {
		case <-notify:
		case <-connGone:
			d.clientGone(j, "client disconnected")
			return
		case <-d.closedCh:
			return
		}
	}
}
