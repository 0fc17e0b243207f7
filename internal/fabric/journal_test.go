package fabric

// Journal and crash-recovery tests: the write-ahead journal's file
// discipline (torn tails, cuts at every byte offset), the replay semantics
// (restoreRecords as a pure function, then a full dispatcher restarted on
// its journal), client failover across a dispatcher restart on the same
// address, graceful drain (dispatcher and worker), and the per-task
// execution deadline. The correctness bar stays the repo's: whatever was
// crashed, killed or drained on the way, a completed sweep must serialize
// byte-for-byte identically to the in-process pool.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/applog"
	"repro/internal/exp"
)

// journalPath returns a fresh journal path in the test's temp dir.
func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.jsonl")
}

// sampleRecords is a plausible journal history: one two-task job granted,
// finished, and cleanly shut down.
func sampleRecords() []journalRecord {
	sw := fabricSweep()
	return []journalRecord{
		{Submit: &journalSubmit{ID: "j1", Ref: "r1", Name: "sweep", Env: exp.Env{Sweep: &sw}, Tasks: []exp.Task{{}, {}}}},
		{Grant: &journalGrant{Job: "j1", Idx: 0}},
		{Done: &journalDone{Job: "j1", Idx: 0, Out: exp.Outcome{Rep: &exp.Replication{Rep: 0, MeanT: 1.5}}}},
		{Grant: &journalGrant{Job: "j1", Idx: 1}},
		{Done: &journalDone{Job: "j1", Idx: 1, Out: exp.Outcome{Rep: &exp.Replication{Rep: 1, MeanT: 2.5}}}},
		{Shutdown: true},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, rec := range recs {
		if err := jl.appendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if jl2.Len() != len(recs) {
		t.Fatalf("reloaded %d records, wrote %d", jl2.Len(), len(recs))
	}
	if jl2.Corrupt() != 0 {
		t.Fatalf("clean journal reports %d corrupt lines", jl2.Corrupt())
	}
	if !jl2.CleanShutdown() {
		t.Fatal("journal ending in a shutdown record reports CleanShutdown = false")
	}
	got := jl2.records()
	for i := range recs {
		a, _ := json.Marshal(recs[i])
		b, _ := json.Marshal(got[i])
		if string(a) != string(b) {
			t.Fatalf("record %d changed across the round trip:\n wrote %s\n read  %s", i, a, b)
		}
	}
}

// TestJournalEarlierFormatReplays replays a journal written by an earlier
// fabricd, whose submit records carry a "detach" field: two finished jobs,
// and a third whose three tasks were still queued when the dispatcher was
// killed.
func TestJournalEarlierFormatReplays(t *testing.T) {
	jl, err := OpenJournal(filepath.Join("testdata", "journal_detach.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	d := NewDispatcher(DispatcherOptions{Journal: jl})
	defer d.Close()
	want := []JobStatus{
		{ID: "j1", Name: "queued", State: JobDone, Done: 2, Total: 2},
		{ID: "j2", Name: "attached", State: JobDone, Done: 2, Total: 2},
		{ID: "j3", Name: "leftover", State: JobRunning, Done: 0, Total: 3},
	}
	if got := d.Jobs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed jobs:\n got %+v\nwant %+v", got, want)
	}
	if got := d.QueueDepth(); got != 3 {
		t.Fatalf("replay re-queued %d tasks, want the leftover job's 3", got)
	}
}

// TestJournalTornTailRepair kills a journal mid-record (no trailing
// newline): the torn stump must be skipped and counted, the intact prefix
// kept, and the first append after reopening must land on its own line —
// not be absorbed into the stump.
func TestJournalTornTailRepair(t *testing.T) {
	path := journalPath(t)
	intact := `{"grant":{"job":"j1","idx":0}}` + "\n"
	torn := `{"done":{"job":"j1","idx":0,"out":{"et":`
	if err := os.WriteFile(path, []byte(intact+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if jl.Len() != 1 || jl.Corrupt() != 1 {
		t.Fatalf("torn journal loaded %d records / %d corrupt, want 1 / 1", jl.Len(), jl.Corrupt())
	}
	if jl.CleanShutdown() {
		t.Fatal("torn journal claims a clean shutdown")
	}
	if err := jl.appendRecord(journalRecord{Shutdown: true}); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	// The stump stays corrupt, the old record and the new one both load.
	if jl2.Len() != 2 || jl2.Corrupt() != 1 {
		t.Fatalf("repaired journal loaded %d records / %d corrupt, want 2 / 1", jl2.Len(), jl2.Corrupt())
	}
	if !jl2.CleanShutdown() {
		t.Fatal("repaired journal should end in the appended shutdown record")
	}
}

// TestJournalCrashPoints cuts a full journal history at every byte offset
// by truncating the file — what a SIGKILL landing mid write(2) leaves.
// Whatever the offset, reopening must recover exactly the records whose
// JSON survived, count a cut one as corrupt, and replay to a consistent
// registry.
func TestJournalCrashPoints(t *testing.T) {
	recs := sampleRecords()
	full := journalPath(t)
	jl, err := OpenJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jl.appendRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Record i's JSON spans data[starts[i]:ends[i]]; its newline follows.
	starts, ends := []int{0}, []int{}
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i)
			starts = append(starts, i+1)
		}
	}
	if len(ends) != len(recs) {
		t.Fatalf("reference journal has %d lines for %d records", len(ends), len(recs))
	}

	path := filepath.Join(t.TempDir(), "cut.jsonl")
	for offset := 0; offset <= len(data); offset++ {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, int64(offset)); err != nil {
			t.Fatal(err)
		}
		whole, cut := 0, 0
		for whole < len(recs) && ends[whole] <= offset {
			whole++
		}
		if whole < len(recs) && offset > starts[whole] {
			cut = 1
		}
		re, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", offset, err)
		}
		if re.Len() != whole || re.Corrupt() != cut {
			t.Fatalf("offset %d: reopen loaded %d records / %d corrupt, want %d / %d",
				offset, re.Len(), re.Corrupt(), whole, cut)
		}
		for i, rec := range re.records() {
			a, _ := json.Marshal(rec)
			b, _ := json.Marshal(recs[i])
			if string(a) != string(b) {
				t.Fatalf("offset %d: recovered record %d mangled", offset, i)
			}
		}
		// Recovery must replay to a consistent registry, whatever the cut.
		st := restoreRecords(re.records(), 3)
		if err := checkRestored(st, 3); err != nil {
			t.Fatalf("offset %d (%d records): %v", offset, whole, err)
		}
		re.Close()
	}
}

// TestRestoreRecordsBudget: grants with no completion are interrupted
// executions and consume the unified retry budget; a task whose grants
// already exhausted it fails the job at replay.
func TestRestoreRecordsBudget(t *testing.T) {
	sw := fabricSweep()
	submit := journalRecord{Submit: &journalSubmit{ID: "j1", Env: exp.Env{Sweep: &sw}, Tasks: []exp.Task{{}}}}
	grant := journalRecord{Grant: &journalGrant{Job: "j1", Idx: 0}}

	st := restoreRecords([]journalRecord{submit, grant, grant}, 3)
	if j := st.jobs["j1"]; j.state != JobRunning || j.attempts[0] != 2 {
		t.Fatalf("2 interrupted grants against budget 3: state %s attempts %d", j.state, j.attempts[0])
	}
	st = restoreRecords([]journalRecord{submit, grant, grant, grant}, 3)
	j := st.jobs["j1"]
	if j.state != JobFailed || len(st.failed) != 1 {
		t.Fatalf("3 interrupted grants against budget 3 should fail the job at replay: state %s failed %v", j.state, st.failed)
	}
	if !strings.Contains(j.err, "restart") {
		t.Fatalf("budget-exhausted error does not mention restarts: %q", j.err)
	}
	// A grant followed by its completion is not an interrupted attempt.
	done := journalRecord{Done: &journalDone{Job: "j1", Idx: 0, Out: exp.Outcome{}}}
	st = restoreRecords([]journalRecord{submit, grant, grant, grant, done}, 3)
	if j := st.jobs["j1"]; j.state != JobDone || j.done != 1 {
		t.Fatalf("completed task failed at replay anyway: state %s done %d", j.state, j.done)
	}
}

// serveDispatcherOn serves an existing dispatcher on a specific address
// (":0" style or a concrete one, for restart-on-same-port tests) and tears
// it down with the test.
func serveDispatcherOn(t *testing.T, d *Dispatcher, addr string) string {
	t.Helper()
	var ln net.Listener
	var err error
	// A just-killed dispatcher's port can need a beat to rebind.
	for i := 0; i < 100; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.Serve(ln) }()
	t.Cleanup(func() {
		d.Close()
		if err := <-done; err != nil {
			t.Errorf("dispatcher Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestDispatcherJournalReplayResumes: a dispatcher with queued (ungranted)
// work dies; a new dispatcher on the same journal resumes the job and a
// worker completes it, with the completions journaled for the next life.
func TestDispatcherJournalReplayResumes(t *testing.T) {
	path := journalPath(t)
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := fabricSweep()
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	d1 := NewDispatcher(DispatcherOptions{Journal: jl})
	if _, _, err := d1.submitJob(&submitReq{Name: "resume", Env: exp.Env{Sweep: &sw}, Tasks: tasks, Detach: true, Ref: "r-resume"}); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	jl.Close()

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	d2 := NewDispatcher(DispatcherOptions{Journal: jl2})
	if got := d2.QueueDepth(); got != len(tasks) {
		t.Fatalf("replayed queue depth %d, want all %d tasks", got, len(tasks))
	}
	jobs := d2.Jobs()
	if len(jobs) != 1 || jobs[0].State != JobRunning || jobs[0].Done != 0 {
		t.Fatalf("replayed registry: %+v", jobs)
	}
	addr := serveDispatcherOn(t, d2, "127.0.0.1:0")
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})
	waitFor(t, "replayed job to finish", 30*time.Second, func() bool {
		jobs := d2.Jobs()
		return len(jobs) == 1 && jobs[0].State == JobDone && jobs[0].Done == len(tasks)
	})
}

// TestDispatcherJournalReplayServesFinishedJob: after a completed job, a
// restarted dispatcher must answer a re-attach (same submit ref) entirely
// from replayed outcomes — every result streamed, no worker connected.
func TestDispatcherJournalReplayServesFinishedJob(t *testing.T) {
	path := journalPath(t)
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := fabricSweep()
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	d1 := NewDispatcher(DispatcherOptions{Journal: jl})
	addr1 := serveDispatcherOn(t, d1, "127.0.0.1:0")
	startWorker(t, &Worker{Dispatcher: addr1, Name: "w1"})

	const ref = "r-fixed-reattach"
	ctx := context.Background()
	attach := func(t *testing.T, addr string) map[int]exp.Outcome {
		t.Helper()
		sess, err := dial(ctx, addr, helloMsg{Role: roleClient})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.close()
		if err := sess.send(clientReq{Submit: &submitReq{Name: "reattach", Env: exp.Env{Sweep: &sw}, Tasks: tasks, Ref: ref}}); err != nil {
			t.Fatal(err)
		}
		outs := make(map[int]exp.Outcome)
		for {
			var resp clientResp
			if err := sess.read(&resp); err != nil {
				t.Fatal(err)
			}
			switch {
			case resp.Err != "":
				t.Fatal(resp.Err)
			case resp.Result != nil:
				if _, dup := outs[resp.Result.Index]; dup {
					t.Fatalf("task %d streamed twice on one connection", resp.Result.Index)
				}
				outs[resp.Result.Index] = resp.Result.Out
			case resp.Done != nil:
				if resp.Done.Err != "" {
					t.Fatal(resp.Done.Err)
				}
				return outs
			}
		}
	}
	first := attach(t, addr1)
	if len(first) != len(tasks) {
		t.Fatalf("first attach streamed %d/%d results", len(first), len(tasks))
	}
	d1.Close()
	jl.Close()

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	d2 := NewDispatcher(DispatcherOptions{Journal: jl2})
	if d2.QueueDepth() != 0 {
		t.Fatalf("finished job re-queued %d tasks at replay", d2.QueueDepth())
	}
	addr2 := serveDispatcherOn(t, d2, "127.0.0.1:0")
	// No worker on d2: every streamed result below is a replayed outcome.
	second := attach(t, addr2)
	if len(second) != len(tasks) {
		t.Fatalf("re-attach streamed %d/%d results", len(second), len(tasks))
	}
	for i := range tasks {
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if string(a) != string(b) {
			t.Fatalf("task %d: replayed outcome differs from the computed one:\n %s\nvs\n %s", i, a, b)
		}
	}
}

// TestDispatcherJournalReplayMatchesLive runs a journaled dispatcher live
// through every job transition: a cancel, a re-queue after a worker loss, a
// completed sweep and a deterministic task failure. A dispatcher reopened
// on that journal must report the same jobs and re-attach the same refs.
func TestDispatcherJournalReplayMatchesLive(t *testing.T) {
	path := journalPath(t)
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	d1, addr := startDispatcher(t, DispatcherOptions{Journal: jl})
	sw := fabricSweep()
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	env := exp.Env{Sweep: &sw}
	refs := make(map[string]string) // submit ref -> job id
	submit := func(ref string, tasks []exp.Task) string {
		t.Helper()
		j, _, err := d1.submitJob(&submitReq{Name: ref, Env: env, Tasks: tasks, Detach: true, Ref: ref})
		if err != nil {
			t.Fatal(err)
		}
		refs[ref] = j.id
		return j.id
	}

	// No worker is connected yet, so the canceled job never runs.
	canceled := submit("r-cancel", tasks)
	if err := (&Client{Addr: addr}).Cancel(context.Background(), canceled); err != nil {
		t.Fatal(err)
	}
	requeued := submit("r-requeue", tasks[:1])
	startWorker(t, &Worker{Dispatcher: addr, Name: "doomed", dieAfterAssigns: 1})
	waitFor(t, "the lost task to be re-queued", 5*time.Second, func() bool { return d1.Requeues() == 1 })
	startWorker(t, &Worker{Dispatcher: addr, Name: "healthy"})
	done := submit("r-done", tasks)
	bad := exp.Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "NOPE"}
	failed := submit("r-fail", []exp.Task{{Sim: &exp.TaskSpec{Cell: bad, Rep: 0, Seed: sw.RepSeed(bad, 0), Key: sw.Key(bad)}}})
	waitFor(t, "every job to finish", 30*time.Second, func() bool {
		for _, j := range d1.Jobs() {
			if j.State == JobRunning {
				return false
			}
		}
		return true
	})
	live := d1.Jobs()
	want := map[string]string{canceled: JobCanceled, requeued: JobDone, done: JobDone, failed: JobFailed}
	for _, j := range live {
		if j.State != want[j.ID] {
			t.Fatalf("live job %s ended %s (%s), want %s", j.ID, j.State, j.Err, want[j.ID])
		}
	}
	d1.mu.Lock()
	liveRegistry := restoredSummary(&restoredState{registry: d1.registry})
	d1.mu.Unlock()
	d1.Close()
	jl.Close()

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	d2 := NewDispatcher(DispatcherOptions{Journal: jl2})
	if got := d2.Jobs(); !reflect.DeepEqual(got, live) {
		t.Fatalf("replayed jobs differ from the live ones:\nlive     %+v\nreplayed %+v", live, got)
	}
	// Live and replay count attempts the same way, so the whole registry
	// matches, attempt counts included.
	if got := restoredSummary(&restoredState{registry: d2.registry}); got != liveRegistry {
		t.Fatalf("replayed registry differs from the live one:\nlive\n%s\nreplayed\n%s", liveRegistry, got)
	}
	if d2.QueueDepth() != 0 {
		t.Fatalf("replay re-queued %d tasks of finished jobs", d2.QueueDepth())
	}
	for ref, id := range refs {
		j, reattached, err := d2.submitJob(&submitReq{Env: env, Tasks: tasks, Ref: ref})
		if err != nil || !reattached || j.id != id {
			t.Fatalf("ref %s: re-attached %v to %+v (err %v), want job %s", ref, reattached, j, err, id)
		}
	}
}

// TestFabricDispatcherCrashFailover is the tentpole end to end, in process:
// an attached sweep is mid-flight when the dispatcher dies; a new
// dispatcher starts on the same address and journal; workers redial, the
// client's Backend redials and re-attaches by ref, and the finished sweep
// is byte-identical to the pool.
func TestFabricDispatcherCrashFailover(t *testing.T) {
	sw := fabricSweep()
	sw.Jobs = 50_000 // long enough to still be mid-flight at the kill
	pool, err := exp.Run(context.Background(), sw, exp.Options{Backend: exp.PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}

	path := journalPath(t)
	jl1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	d1 := NewDispatcher(DispatcherOptions{Journal: jl1})
	d1done := make(chan error, 1)
	go func() { d1done <- d1.Serve(ln) }()
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w2"})

	type runOut struct {
		rs  *exp.ResultSet
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		rs, err := exp.Run(context.Background(), sw, exp.Options{
			Backend: &Backend{
				Addr: addr, Name: "failover",
				ReconnectBackoff: 10 * time.Millisecond,
				RedialBudget:     30 * time.Second,
			},
		})
		resCh <- runOut{rs, err}
	}()

	// Kill the dispatcher mid-sweep...
	time.Sleep(200 * time.Millisecond)
	d1.Close()
	if err := <-d1done; err != nil {
		t.Fatalf("dispatcher 1 Serve: %v", err)
	}
	jl1.Close()

	// ...and restart it on the same journal and the same address.
	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	d2 := NewDispatcher(DispatcherOptions{Journal: jl2})
	serveDispatcherOn(t, d2, addr)

	out := <-resCh
	if out.err != nil {
		t.Fatalf("sweep failed across the dispatcher crash: %v", out.err)
	}
	if resultJSON(t, pool) != resultJSON(t, out.rs) {
		t.Fatal("sweep across a dispatcher crash differs from the pool")
	}
	// The job must have come through d2 as a single re-attached job — not a
	// duplicate — whether or not d1 granted anything before dying.
	jobs := d2.Jobs()
	if len(jobs) != 1 || jobs[0].State != JobDone {
		t.Fatalf("post-failover registry: %+v", jobs)
	}
}

// TestDispatcherDrain: draining stops grants and submissions, waits out
// in-flight work, and journals a clean shutdown the next open reports.
func TestDispatcherDrain(t *testing.T) {
	path := journalPath(t)
	jl, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := fabricSweep()
	d, addr := startDispatcher(t, DispatcherOptions{Journal: jl})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})
	runFabric(t, addr, sw)

	if err := d.Drain(5 * time.Second); err != nil {
		t.Fatalf("drain with nothing in flight: %v", err)
	}
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.submitJob(&submitReq{Env: exp.Env{Sweep: &sw}, Tasks: tasks}); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("submit on a draining dispatcher: %v", err)
	}
	d.Close()
	jl.Close()

	jl2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if !jl2.CleanShutdown() {
		t.Fatal("drained dispatcher's journal does not end in a clean shutdown")
	}
	// And the clean journal replays with nothing to redo.
	d2 := NewDispatcher(DispatcherOptions{Journal: jl2})
	if d2.QueueDepth() != 0 {
		t.Fatalf("cleanly drained journal re-queued %d tasks", d2.QueueDepth())
	}
}

// TestFabricWorkerDrain: draining one of two workers mid-sweep lets it
// finish its in-flight task and deregister; the survivor completes the
// sweep byte-identically and the drained worker's Run returns nil.
func TestFabricWorkerDrain(t *testing.T) {
	sw := fabricSweep()
	sw.Jobs = 20_000
	pool, err := exp.Run(context.Background(), sw, exp.Options{Backend: exp.PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDispatcher(t, DispatcherOptions{})
	startWorker(t, &Worker{Dispatcher: addr, Name: "stays"})
	leaving := &Worker{Dispatcher: addr, Name: "leaving"}
	ctx := context.Background()
	leftDone := make(chan error, 1)
	go func() { leftDone <- leaving.Run(ctx) }()
	waitFor(t, "both workers connected", 5*time.Second, func() bool { return d.WorkerCount() == 2 })

	go func() {
		time.Sleep(100 * time.Millisecond)
		leaving.Drain()
	}()
	fab := runFabric(t, addr, sw)
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("sweep across a worker drain differs from the pool")
	}
	select {
	case err := <-leftDone:
		if err != nil {
			t.Fatalf("drained worker Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drained worker never exited")
	}
	waitFor(t, "drained worker deregistered", 5*time.Second, func() bool { return d.WorkerCount() == 1 })
}

// TestFabricTaskDeadline: a worker wedged solid inside a task (frozen, so
// heartbeat reaping with a long timeout never fires) is cut off by the
// per-task execution deadline; the task re-queues within the same retry
// budget and the sweep completes byte-identically on the healthy worker.
func TestFabricTaskDeadline(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Backend: exp.PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	d, addr := startDispatcher(t, DispatcherOptions{
		TaskDeadline:     500 * time.Millisecond,
		HeartbeatTimeout: time.Hour, // the deadline, not the reaper, must fire
	})
	startWorker(t, &Worker{Dispatcher: addr, Name: "healthy"})
	startWorker(t, &Worker{Dispatcher: addr, Name: "wedged", freezeAfterAssigns: 1})

	fab := runFabric(t, addr, sw)
	if resultJSON(t, pool) != resultJSON(t, fab) {
		t.Fatal("sweep across a task-deadline expiry differs from the pool")
	}
	if d.DeadlineExpiries() < 1 {
		t.Fatalf("wedged worker held a task but DeadlineExpiries = %d", d.DeadlineExpiries())
	}
	if d.Requeues() < 1 {
		t.Fatalf("expired assignment was not re-queued: Requeues = %d", d.Requeues())
	}
	if st := d.Stats(); st.DeadlineExpiries != d.DeadlineExpiries() {
		t.Fatalf("StatsReply.DeadlineExpiries = %d, accessor says %d", st.DeadlineExpiries, d.DeadlineExpiries())
	}
}

// checkRestored asserts the internal consistency of a replayed registry:
// the invariants the live dispatcher maintains must hold whatever bytes
// the journal fed the replay.
func checkRestored(st *restoredState, maxAttempts int) error {
	if len(st.jobOrder) != len(st.jobs) {
		return fmt.Errorf("jobOrder has %d entries for %d jobs", len(st.jobOrder), len(st.jobs))
	}
	seen := make(map[string]bool)
	for _, id := range st.jobOrder {
		if seen[id] {
			return fmt.Errorf("job %s appears twice in jobOrder", id)
		}
		seen[id] = true
		j := st.jobs[id]
		if j == nil {
			return fmt.Errorf("jobOrder names unknown job %s", id)
		}
		n := len(j.tasks)
		if len(j.attempts) != n || len(j.emitted) != n || len(j.outs) != n {
			return fmt.Errorf("job %s: slice lengths diverge from %d tasks", id, n)
		}
		done := 0
		for i := 0; i < n; i++ {
			if j.emitted[i] != (j.outs[i] != nil) {
				return fmt.Errorf("job %s task %d: emitted=%t but outcome presence=%t (a completed task was lost or invented)", id, i, j.emitted[i], j.outs[i] != nil)
			}
			if j.emitted[i] {
				done++
			}
			if j.attempts[i] < 0 {
				return fmt.Errorf("job %s task %d: negative attempts", id, i)
			}
			if j.state == JobRunning && !j.emitted[i] && j.attempts[i] >= maxAttempts {
				return fmt.Errorf("job %s task %d: running with attempts %d >= budget %d", id, i, j.attempts[i], maxAttempts)
			}
		}
		if j.done != done {
			return fmt.Errorf("job %s: done=%d but %d emitted", id, j.done, done)
		}
		if (j.state == JobDone) != (done == n) {
			return fmt.Errorf("job %s: state %s with %d/%d done", id, j.state, done, n)
		}
		switch j.state {
		case JobRunning, JobDone, JobFailed, JobCanceled:
		default:
			return fmt.Errorf("job %s: unknown state %q", id, j.state)
		}
	}
	for ref, id := range st.refs {
		if st.jobs[id] == nil {
			return fmt.Errorf("ref %s points at unknown job %s", ref, id)
		}
	}
	return nil
}

// restoredSummary renders a registry deterministically for equality checks.
func restoredSummary(st *restoredState) string {
	var b strings.Builder
	for _, id := range st.jobOrder {
		j := st.jobs[id]
		fmt.Fprintf(&b, "%s|%s|%s|%d|%v|%v\n", id, j.ref, j.state, j.done, j.attempts, j.emitted)
	}
	fmt.Fprintf(&b, "next=%d refs=%d failed=%v\n", st.nextJob, len(st.refs), st.failed)
	return b.String()
}

// FuzzJournalReplay feeds arbitrary bytes through the scan OpenJournal
// loads with (applog.Scan with journalDecoder) and the registry replay. Whatever the truncation or corruption: no panic,
// the replayed registry is internally consistent (a completed task is
// never lost — emitted always has its outcome — and a running task never
// exceeds its grant budget), replay is deterministic, and appending more
// records never un-completes a task.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a real history, rendered to bytes...
	var full []byte
	for _, rec := range sampleRecords() {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		full = append(full, line...)
		full = append(full, '\n')
	}
	f.Add(full)
	// ...its torn and corrupted variants...
	f.Add(full[:len(full)-9])
	f.Add(append([]byte("garbage line\n"), full...))
	f.Add([]byte(`{"submit":{"id":"j1","env":{},"tasks":[{},{}]}}` + "\n" +
		`{"grant":{"job":"j1","idx":0}}` + "\n" +
		`{"grant":{"job":"j1","idx":0}}` + "\n" +
		`{"grant":{"job":"j1","idx":0}}` + "\n"))
	f.Add([]byte(`{"submit":{"id":"j1","ref":"r1","env":{},"tasks":[{}]}}` + "\n" +
		`{"submit":{"id":"j1","ref":"r1","env":{},"tasks":[{}]}}` + "\n" +
		`{"done":{"job":"j1","idx":0,"out":{}}}` + "\n" +
		`{"cancel":{"job":"j1","msg":"late"}}` + "\n"))
	f.Add([]byte(`{"done":{"job":"ghost","idx":5,"out":{}}}` + "\n" + `{"shutdown":true}` + "\n"))
	f.Add([]byte{})
	f.Add([]byte("\n\n\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []journalRecord
		if _, _, err := applog.Scan(bytes.NewReader(data), journalDecoder(&recs)); err != nil {
			t.Fatal(err)
		}
		const budget = 3
		st := restoreRecords(recs, budget)
		if err := checkRestored(st, budget); err != nil {
			t.Fatal(err)
		}
		// Determinism: the same records replay to the same registry.
		if a, b := restoredSummary(st), restoredSummary(restoreRecords(recs, budget)); a != b {
			t.Fatalf("replay is nondeterministic:\n%s\nvs\n%s", a, b)
		}
		// Monotonicity: replaying one record fewer never shows a completion
		// the full replay lost.
		if len(recs) > 0 {
			prev := restoreRecords(recs[:len(recs)-1], budget)
			for id, pj := range prev.jobs {
				j := st.jobs[id]
				if j == nil {
					t.Fatalf("job %s vanished when a record was appended", id)
				}
				for i := range pj.emitted {
					if pj.emitted[i] && !j.emitted[i] {
						t.Fatalf("job %s task %d: completion lost when a record was appended", id, i)
					}
				}
			}
		}
	})
}
