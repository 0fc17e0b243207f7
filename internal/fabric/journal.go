package fabric

// The dispatcher's write-ahead job journal. Every state transition that
// matters after a crash — a job submitted, a task granted to a worker, a
// task finished, a job failed or canceled, a clean drain — is appended as
// one JSON line of an internal/applog file *before* the in-memory registry
// mutates: a record torn by a hard kill mid-write(2) is skipped on load
// (counted, never trusted), and the first append after loading a torn file
// starts on a fresh line instead of being absorbed into the stump.
//
// Replay (Dispatcher restore) runs every record through apply, the same
// transition function the live dispatcher runs, so it is idempotent by
// construction: submissions are keyed by job ID (first record wins),
// completions by (job, index) with the same guard the live dispatcher
// uses, and a grant with no matching completion is exactly an interrupted
// in-flight execution — it consumes one unit of the task's retry budget
// and the task is re-queued. Because every task is idempotent (seeds and cache keys derive
// from task identity alone), re-running an interrupted grant is always
// safe, and a configured outcome cache dedupes re-queued tasks whose
// results landed there before the crash.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/applog"
	"repro/internal/exp"
)

// journalRecord is one line of the write-ahead journal; exactly one field
// is set. An all-empty record is treated as corrupt on load.
type journalRecord struct {
	Submit *journalSubmit `json:"submit,omitempty"`
	Grant  *journalGrant  `json:"grant,omitempty"`
	Done   *journalDone   `json:"done,omitempty"`
	Fail   *journalMark   `json:"fail,omitempty"`
	Cancel *journalMark   `json:"cancel,omitempty"`
	// Shutdown marks a clean drain: the dispatcher stopped granting,
	// waited out its in-flight tasks, and exited on purpose. A journal
	// whose last record is a shutdown replays with no interrupted grants.
	Shutdown bool `json:"shutdown,omitempty"`
}

// journalSubmit records a job submission — the full spec, so replay can
// rebuild the registry entry without any other source of truth.
type journalSubmit struct {
	ID    string     `json:"id"`
	Ref   string     `json:"ref,omitempty"`
	Name  string     `json:"name,omitempty"`
	Env   exp.Env    `json:"env"`
	Tasks []exp.Task `json:"tasks"`
}

// journalGrant records a task handed to a worker, written before the
// assignment frame is sent. On replay, a grant without a matching done is
// an execution the crash interrupted: one unit of the task's retry budget.
type journalGrant struct {
	Job string `json:"job"`
	Idx int    `json:"idx"`
}

// journalDone records a finished task with its outcome, written before the
// in-memory registry marks it emitted — so a completion that reached the
// journal is never recomputed and can be re-streamed to a re-attaching
// client after a restart.
type journalDone struct {
	Job string      `json:"job"`
	Idx int         `json:"idx"`
	Out exp.Outcome `json:"out"`
}

// journalMark records a terminal job transition (fail or cancel).
type journalMark struct {
	Job string `json:"job"`
	Msg string `json:"msg,omitempty"`
}

// Journal is the dispatcher's write-ahead job journal: open it with
// OpenJournal, hand it to DispatcherOptions.Journal (NewDispatcher replays
// the loaded records into its registry), and Close it when the process
// exits. One dispatcher owns the file; do not share it.
type Journal struct {
	log   *applog.Log
	recs  []journalRecord
	clean bool
}

// OpenJournal loads (or creates on first append) the journal at path,
// skipping — and counting — corrupt lines, and detecting a torn tail.
func OpenJournal(path string) (*Journal, error) {
	jl := &Journal{}
	log, err := applog.Open(path, journalDecoder(&jl.recs))
	if err != nil {
		return nil, err
	}
	jl.log = log
	jl.clean = len(jl.recs) > 0 && jl.recs[len(jl.recs)-1].Shutdown
	return jl, nil
}

// errEmptyRecord rejects a journal line that decodes but sets no field.
var errEmptyRecord = errors.New("fabric: journal record sets no field")

// journalDecoder returns the line decoder OpenJournal scans with: each
// intact record is appended to *recs, and an undecodable or empty one is
// rejected, which the scan counts as corrupt. A journal is an optimization
// to replay, not a source of truth to refuse, so no content fails the load.
func journalDecoder(recs *[]journalRecord) func(line []byte) error {
	return func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Submit == nil && rec.Grant == nil && rec.Done == nil &&
			rec.Fail == nil && rec.Cancel == nil && !rec.Shutdown {
			return errEmptyRecord
		}
		*recs = append(*recs, rec)
		return nil
	}
}

// appendRecord appends one record — one write(2), flushed by the kernel
// but not fsynced, so the most a hard kill can cost is the record being
// written (which replay then skips as torn). The dispatcher only logs a
// failed append and carries on; the log keeps the next record intact.
func (jl *Journal) appendRecord(rec journalRecord) error { return jl.log.Append(rec) }

// records returns the records loaded at open time; the dispatcher consumes
// them once in NewDispatcher's restore.
func (jl *Journal) records() []journalRecord { return jl.recs }

// Len reports how many intact records the open loaded.
func (jl *Journal) Len() int { return len(jl.recs) }

// Corrupt reports how many undecodable lines the open skipped.
func (jl *Journal) Corrupt() int { return jl.log.Corrupt() }

// CleanShutdown reports whether the loaded journal ended with a clean
// shutdown record — the previous dispatcher drained rather than crashed.
func (jl *Journal) CleanShutdown() bool { return jl.clean }

// Path returns the journal's file path.
func (jl *Journal) Path() string { return jl.log.Path() }

// Close releases the append handle; the next append reopens it.
func (jl *Journal) Close() error { return jl.log.Close() }

// restoredState is the registry a journal replays to, plus the jobs whose
// retry budget interrupted grants had already used up.
type restoredState struct {
	registry
	// failed lists the jobs the budget check failed at replay; the
	// dispatcher journals their failure.
	failed []string
}

// restoreRecords replays journal records into a fresh registry through
// apply, the transition function the live dispatcher runs, and then
// enforces the unified retry budget: a task whose grants without a matching
// done reach maxAttempts fails its job, exactly as requeueOnLoss fails it
// live — so a task cannot crash-loop the fabric by wedging every
// dispatcher incarnation.
func restoreRecords(recs []journalRecord, maxAttempts int) *restoredState {
	st := &restoredState{registry: newRegistry()}
	for _, rec := range recs {
		st.apply(rec)
	}
	for _, id := range st.jobOrder {
		j := st.jobs[id]
		for idx, n := range j.attempts {
			if n < maxAttempts || !j.unfinished(idx) {
				continue
			}
			msg := fmt.Sprintf("fabric: %s failed %d times across dispatcher restarts (retry budget %d exhausted by interrupted grants)",
				j.tasks[idx].Label(), n, maxAttempts)
			st.apply(journalRecord{Fail: &journalMark{Job: id, Msg: msg}})
			st.failed = append(st.failed, id)
			break
		}
	}
	return st
}

// jobNum parses the numeric suffix of a dispatcher job ID ("j17" -> 17).
func jobNum(id string) (int, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
