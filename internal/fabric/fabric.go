// Package fabric is the networked sweep tier of the experiment layer: a
// dispatcher daemon that owns the task queue and a config-hash-keyed result
// cache, plus worker daemons on any reachable host that connect to it over
// TCP and execute tasks through the same exp.ExecuteTask every other
// backend uses — so a fabric run is byte-identical to exp.PoolBackend for
// the same submission.
//
// The transport is the repository's length-delimited JSONL framing
// (internal/wire, "<len>\n<json>\n") over TCP, in the spirit of batch
// simulation-queue managers split into a dispatcher, simulation daemons
// and a submission CLI:
//
//   - workers dial the dispatcher and open with a hello frame carrying the
//     protocol version and an Env probe — a fingerprint of the binary's
//     seeding/cache-key derivation — so a drifted or mismatched worker
//     binary is refused at the handshake, before any task is risked;
//   - the dispatcher assigns one task at a time per worker (fast workers
//     naturally take more of the load), re-queues the in-flight task when a
//     worker is lost (connection drop, or heartbeat silence past the
//     configured timeout), and bounds retries per task (MaxTaskAttempts);
//   - deterministic task errors are never retried: they surface once to the
//     submitter, exactly like every other backend;
//   - workers heartbeat while connected (including mid-task), so a slow
//     task does not look like a dead worker, and reconnect with exponential
//     backoff when the dispatcher restarts or the link drops;
//   - clients submit task batches as jobs: Backend, the exp.Backend
//     implementation behind the drivers' `-dispatcher` flag, streams
//     results back; Client submits detached jobs (simulate -detach) and
//     lists, inspects or cancels jobs on a running dispatcher (cmd/psq).
//
// Entry points: NewDispatcher + Dispatcher.Serve (cmd/fabricd -role
// dispatcher), Worker.Run (cmd/fabricd -role worker), Backend (drivers),
// Client (simulate -detach, cmd/psq).
package fabric

import (
	"fmt"

	"repro/internal/exp"
)

// protoVersion guards against mixed dispatcher/worker/client binaries: the
// dispatcher refuses a hello whose version it does not speak.
const protoVersion = 1

// Connection roles, declared in the hello frame.
const (
	roleWorker = "worker"
	roleClient = "client"
)

// helloMsg opens every fabric connection, worker or client.
type helloMsg struct {
	V    int    `json:"v"`
	Role string `json:"role"`
	// Name identifies a worker in logs and diagnostics.
	Name string `json:"name,omitempty"`
	// Probe is the worker's Env fingerprint (EnvProbe): a digest of its
	// seeding/cache-key derivation. Required for workers; a mismatch means
	// the worker binary would compute different numbers than the
	// dispatcher's clients expect, so the hello is refused.
	Probe string `json:"probe,omitempty"`
}

// helloAck answers a hello. A refused connection carries the reason and is
// then closed.
type helloAck struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
}

// assignMsg hands one task to a worker (dispatcher → worker). Seq is a
// per-connection sequence number the worker echoes, so a desynced or
// replayed result is detectable.
type assignMsg struct {
	Seq  int64    `json:"seq"`
	Env  exp.Env  `json:"env"`
	Task exp.Task `json:"task"`
}

// workerMsg is any worker → dispatcher frame: a bare heartbeat, or a task
// result. Every frame — results included — refreshes the worker's liveness
// deadline.
type workerMsg struct {
	HB     bool       `json:"hb,omitempty"`
	Result *resultMsg `json:"result,omitempty"`
}

// resultMsg reports one finished assignment. Err carries a deterministic
// task-level failure (including recovered panics) as text; the worker
// itself stays alive and keeps taking tasks.
type resultMsg struct {
	Seq int64       `json:"seq"`
	Err string      `json:"err,omitempty"`
	Out exp.Outcome `json:"out"`
}

// clientReq is the single request a client connection issues after its
// hello; exactly one field is set.
type clientReq struct {
	Submit *submitReq `json:"submit,omitempty"`
	List   bool       `json:"list,omitempty"`
	Cancel string     `json:"cancel,omitempty"`
	// Stats requests the dispatcher's operational counters (psq stats).
	Stats bool `json:"stats,omitempty"`
}

// submitReq submits a batch of tasks as one job. Detached jobs run to
// completion (warming the dispatcher's result cache) with no client
// attached; attached jobs stream results back on the same connection.
type submitReq struct {
	Name   string     `json:"name,omitempty"`
	Env    exp.Env    `json:"env"`
	Tasks  []exp.Task `json:"tasks"`
	Detach bool       `json:"detach,omitempty"`
	// Ref is a client-generated idempotency token: a resubmission carrying
	// the Ref of a job the dispatcher already knows re-attaches to that job
	// instead of creating a duplicate. This is what makes redial-after-
	// disconnect (and re-attach after a journaled dispatcher restart) safe.
	Ref string `json:"ref,omitempty"`
}

// clientResp is any dispatcher → client frame.
type clientResp struct {
	// Submitted acknowledges a submit with the new job's ID.
	Submitted string `json:"submitted,omitempty"`
	// Result streams one finished task of an attached job.
	Result *streamMsg `json:"result,omitempty"`
	// Done terminates an attached job's stream.
	Done *doneMsg `json:"done,omitempty"`
	// Jobs answers a list request.
	Jobs []JobStatus `json:"jobs,omitempty"`
	// Stats answers a stats request.
	Stats *StatsReply `json:"stats,omitempty"`
	// OK acknowledges a cancel.
	OK bool `json:"ok,omitempty"`
	// Err reports a request-level failure (unknown job, bad submit, ...).
	Err string `json:"err,omitempty"`
}

// streamMsg is one finished task of an attached job: the task's index in
// the submitted batch plus its outcome. Because outcomes are addressed by
// index, results may stream in any completion order without affecting the
// submitter's aggregation.
type streamMsg struct {
	Index int         `json:"index"`
	Out   exp.Outcome `json:"out"`
}

// doneMsg ends an attached job's stream; a non-empty Err is the job's
// failure (a deterministic task error, a retry budget exhausted, or a
// cancellation), surfaced exactly once.
type doneMsg struct {
	Err string `json:"err,omitempty"`
}

// StatsReply is the dispatcher's operational snapshot, as reported to psq
// stats: the numbers the Dispatcher accessors (WorkerCount, CacheHits, ...)
// already expose in-process, made reachable over the wire. CacheLen, the
// number of cached task outcomes, appears only when an outcome cache is
// configured.
type StatsReply struct {
	Workers    int   `json:"workers"`
	QueueDepth int   `json:"queueDepth"`
	Jobs       int   `json:"jobs"`
	CacheHits  int64 `json:"cacheHits"`
	Requeues   int64 `json:"requeues"`
	Handshakes int64 `json:"handshakes"`
	Refusals   int64 `json:"refusals"`
	// DeadlineExpiries counts assignments abandoned because the per-task
	// execution deadline (fabricd -task-deadline) expired.
	DeadlineExpiries int64 `json:"deadlineExpiries,omitempty"`
	CacheLen         int   `json:"cacheLen,omitempty"`
}

// JobStatus is one job's public state, as reported to psq list.
type JobStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Err   string `json:"err,omitempty"`
}

// Job states reported by JobStatus.
const (
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// EnvProbe fingerprints this binary's seeding and cache-key derivation by
// evaluating the contracts pinned in exp's TestKeyAndRepSeedPinned and
// TestTaskKeysPinned on a canonical probe cell and analysis point. Two
// binaries with equal probes derive identical seeds and cache keys for every
// task, which is exactly the invariant that makes distributing tasks safe; a
// worker whose probe differs would compute different numbers (the analysis
// key's version names the R solver), so the dispatcher refuses its hello.
func EnvProbe() string {
	sw := exp.Sweep{Name: "fabric-probe", Reps: 2, BaseSeed: 7, Warmup: 100, Jobs: 1000}
	c := exp.Cell{K: 4, Rho: 0.7, MuI: 2, MuE: 1, Policy: "IF"}
	analyze, _ := exp.TaskKey(exp.Task{Analyze: &exp.AnalyzePoint{K: 4, Rho: 0.7, MuI: 2, MuE: 1}})
	return fmt.Sprintf("v%d|%s|%016x|%016x|%s", protoVersion, sw.Key(c), sw.RepSeed(c, 0), sw.RepSeed(c, 1), analyze)
}
