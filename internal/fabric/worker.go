package fabric

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
)

// Worker is a fabric worker daemon: it dials the dispatcher, handshakes,
// and executes assigned tasks through exp.ExecuteTask — the same executor
// every backend runs, which is what keeps fabric output byte-identical to
// the in-process pool. While connected it heartbeats (including mid-task,
// so long tasks are not mistaken for death); when the link drops it
// reconnects with exponential backoff. One Worker serves one task at a
// time; run several (fabricd -slots) to use more cores.
type Worker struct {
	// Dispatcher is the dispatcher's host:port.
	Dispatcher string
	// Name identifies this worker in dispatcher logs.
	Name string
	// HeartbeatInterval is the idle gap between heartbeat frames; <= 0
	// means 3s. Keep it well under the dispatcher's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// ReconnectBackoff is the first pause before redialing after a failed
	// dial or dropped session; it doubles per attempt up to 15s, and a
	// completed handshake resets it. <= 0 means 250ms.
	ReconnectBackoff time.Duration
	// Logf receives session events; nil discards them.
	Logf func(format string, args ...any)

	// Fault-injection hooks, settable only by in-package tests (the CI
	// gate injects faults the honest way: SIGKILL on a fabricd process).
	//
	// dieAfterResults > 0: abruptly close the connection after sending N
	// results and stop for good — a crash that never comes back.
	dieAfterResults int
	// dieAfterAssigns > 0: abruptly close the connection upon *receiving*
	// the Nth assignment, without answering it, and stop for good — a crash
	// mid-task, the case that forces the dispatcher to re-queue in-flight
	// work.
	dieAfterAssigns int
	// dropAfterResults > 0: abruptly close the connection after sending N
	// results each session, but keep the reconnect loop running — a flaky
	// link that heals.
	dropAfterResults int
	// freezeAfterAssigns > 0: upon receiving the Nth assignment, stop
	// heartbeating and go completely silent (no result, no frames) until
	// the dispatcher reaps the connection, then stop for good — a process
	// wedged hard (SIGSTOP, kernel hang).
	freezeAfterAssigns int
	// probeOverride, when non-empty, replaces the hello's Env probe — a
	// worker binary whose seeding/cache-key derivation drifted.
	probeOverride string

	sessions atomic.Int64
	served   atomic.Int64

	drainMu sync.Mutex
	drainCh chan struct{}
	// inTask is true between receiving an assignment and flushing its
	// result; the drain watcher leaves a busy worker's connection alone so
	// the in-flight task lands before the worker deregisters.
	inTask atomic.Bool
}

// drainChan lazily creates the drain signal channel, so Drain works whether
// it is called before, during, or after Run.
func (w *Worker) drainChan() chan struct{} {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	if w.drainCh == nil {
		w.drainCh = make(chan struct{})
	}
	return w.drainCh
}

// Drain asks the worker to exit gracefully: an idle worker disconnects
// immediately; a worker mid-task finishes the task, delivers the result,
// and then disconnects. Run returns nil after a drain. Safe to call from
// any goroutine, any number of times.
func (w *Worker) Drain() {
	ch := w.drainChan()
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// draining reports whether Drain has been called.
func (w *Worker) draining() bool {
	select {
	case <-w.drainChan():
		return true
	default:
		return false
	}
}

// Served reports how many task results this worker has sent.
func (w *Worker) Served() int64 { return w.served.Load() }

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) heartbeatInterval() time.Duration {
	if w.HeartbeatInterval > 0 {
		return w.HeartbeatInterval
	}
	return 3 * time.Second
}

// Run dials, serves and redials until ctx is canceled, the worker drains,
// the dispatcher refuses the handshake (a permanent condition: version or
// env drift), or a scripted fault stops the worker. It returns nil after a
// drain or a fault stop, and ctx's error after cancellation.
func (w *Worker) Run(ctx context.Context) error {
	if w.draining() {
		return nil
	}
	// A drain ends an idle worker's session and redial loop at once. A
	// worker mid-task is left alone: its session sees the drain after the
	// result is delivered.
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-w.drainChan():
			if !w.inTask.Load() {
				cancel()
			}
		case <-rctx.Done():
		}
	}()
	probe := w.probeOverride
	if probe == "" {
		probe = EnvProbe()
	}
	hello := helloMsg{Role: roleWorker, Name: w.Name, Probe: probe}
	err := redial(rctx, w.Dispatcher, hello, w.ReconnectBackoff, 0, w.logf,
		func(s *session) (bool, error) { return w.serve(rctx, s) })
	if ctx.Err() == nil && w.draining() {
		return nil
	}
	return err
}

// serve executes assignments on one handshaken session until the link
// drops. retry is false when the worker must not redial: it drained, or a
// scripted fault stopped it.
func (w *Worker) serve(ctx context.Context, s *session) (retry bool, err error) {
	w.sessions.Add(1)
	// Heartbeats run for the life of the session — through task execution
	// too, which is what distinguishes a slow worker from a dead one.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	go func() {
		t := time.NewTicker(w.heartbeatInterval())
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if s.send(workerMsg{HB: true}) != nil {
					return // the main read loop will see the dead conn
				}
			}
		}
	}()

	results, assigns := 0, 0
	for {
		var a assignMsg
		if err := s.read(&a); err != nil {
			return !w.draining(), fmt.Errorf("reading assignment: %w", err)
		}
		w.inTask.Store(true)
		assigns++
		if w.dieAfterAssigns > 0 && assigns >= w.dieAfterAssigns {
			return false, nil
		}
		if w.freezeAfterAssigns > 0 && assigns >= w.freezeAfterAssigns {
			// Scripted hard wedge: stop heartbeating, go silent, and wait
			// for the dispatcher to reap the connection.
			hbCancel()
			buf := make([]byte, 1)
			for {
				if _, err := s.conn.Read(buf); err != nil {
					return false, nil
				}
			}
		}
		out, terr := exp.ExecuteTask(a.Env, a.Task)
		res := resultMsg{Seq: a.Seq, Out: out}
		if terr != nil {
			res.Err = terr.Error()
		}
		werr := s.send(workerMsg{Result: &res})
		if werr != nil && res.Err == "" {
			// Result not representable (e.g. NaN in a field JSON cannot
			// carry): degrade to a task error, which always marshals.
			res = resultMsg{Seq: a.Seq, Err: fmt.Sprintf("fabric: %s: un-encodable result: %v", a.Task.Label(), werr)}
			werr = s.send(workerMsg{Result: &res})
		}
		if werr != nil {
			return !w.draining(), fmt.Errorf("writing result: %w", werr)
		}
		w.inTask.Store(false)
		results++
		w.served.Add(1)
		if w.draining() {
			w.logf("fabric worker %s: drained after in-flight task", w.Name)
			return false, nil
		}
		if w.dieAfterResults > 0 && results >= w.dieAfterResults {
			return false, nil
		}
		if w.dropAfterResults > 0 && results >= w.dropAfterResults {
			return true, fmt.Errorf("fabric: fault injection: dropped connection after %d results", results)
		}
	}
}
