package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map runs fn(0), …, fn(n-1) on a worker pool and returns the results in
// index order. workers <= 0 means GOMAXPROCS. Each worker takes the next
// index from a shared atomic counter, so a task starts as soon as a worker
// is free, with no hand-off through a feeding goroutine. Each index runs at
// most once, and every index runs unless Map stops early. The first error
// (or recovered panic) cancels the remaining tasks and is returned;
// cancellation of ctx stops workers from taking further indices and
// returns ctx's error, so a ctx canceled before the call runs nothing. Map
// is the generic primitive behind the figure drivers and the dominance
// experiment.
func Map[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("exp: negative task count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				v, err := protect(i, fn)
				if err != nil {
					fail(err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// protect isolates one task: a panic inside fn becomes an error for that
// task instead of crashing the whole pool.
func protect[T any](i int, fn func(int) (T, error)) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: task %d panicked: %v", i, p)
		}
	}()
	return fn(i)
}

// Options configure the dispatcher.
type Options struct {
	// Backend executes the tasks; nil means PoolBackend{} (goroutines of
	// this process, GOMAXPROCS of them). Use a fabric.Backend to run them
	// on a networked dispatcher's workers.
	Backend Backend
	// Cache, when non-nil, is consulted before running a cell and updated
	// the moment a cell's last replication finishes — so a canceled sweep
	// still banks its completed cells and a re-run is incremental. When it
	// also implements OutcomeCache (FileCache does, MemCache does not), the
	// point drivers (figures, validation, ablation, dominance; see
	// submitAll), whose tasks belong to no Sweep cell, memoize each task
	// outcome in it as well. The cache is only ever touched by the
	// submitting process, never by a backend's workers.
	Cache Cache
}

// backend resolves the effective Backend.
func (o Options) backend() Backend {
	if o.Backend != nil {
		return o.Backend
	}
	return PoolBackend{}
}

// Tasks validates the sweep and expands it into its full task list — one
// Sim task per (cell, replication) pair, with the seed and cache key
// precomputed exactly as Run would. This is the submission payload for
// detached fabric jobs (simulate -detach), where no Run loop is present on
// the client to build tasks lazily.
func (sw Sweep) Tasks() ([]Task, error) {
	if err := sw.validate(); err != nil {
		return nil, err
	}
	var tasks []Task
	for _, c := range sw.Grid.Cells() {
		key := sw.Key(c)
		for rep := 0; rep < sw.reps(); rep++ {
			tasks = append(tasks, Task{Sim: &TaskSpec{
				Cell: c, Rep: rep, Seed: sw.RepSeed(c, rep), Key: key,
			}})
		}
	}
	return tasks, nil
}

// Run executes the sweep: every (cell, replication) pair is one task
// submitted to the configured Backend (the in-process goroutine pool by
// default). Replication seeds depend only on cell identity and replication
// index, and per-cell aggregation always consumes replications in index
// order, so the returned ResultSet is bit-identical for any worker count
// and any backend. On error or cancellation Run returns nil and the error;
// cells that completed before the interruption are in the cache (if one was
// given).
func Run(ctx context.Context, sw Sweep, opt Options) (*ResultSet, error) {
	return RunProgress(ctx, sw, opt, nil)
}

// Progress is one progress event of RunProgress: a cell gained a finished
// replication (or was served whole from the cache). Events for one cell are
// monotone in DoneReps; the event with DoneReps == TotalReps carries the
// cell's final aggregate in Partial.
type Progress struct {
	// CellIndex positions the cell in the sweep's Grid.Cells() order — the
	// same order ResultSet.Cells uses.
	CellIndex int
	// DoneReps counts the replications aggregated into Partial, of
	// TotalReps.
	DoneReps  int
	TotalReps int
	// FromCache marks a cell answered whole from Options.Cache; its single
	// event has DoneReps == TotalReps.
	FromCache bool
	// Partial aggregates the replications that have arrived so far, in
	// replication-index order — the same deterministic order the final
	// aggregate uses, so CIs tighten monotonically in expectation and the
	// last event's Partial equals the cell's ResultSet entry exactly.
	Partial CellResult
}

// RunProgress is Run with a progress stream: onProgress (when non-nil) is
// invoked after every finished replication with the owning cell's partial
// aggregate — this is what lets a serving layer stream CIs that tighten
// live instead of forcing clients to poll for the final ResultSet. Events
// are delivered serially (never concurrently) and in a deterministic
// per-cell order, but interleaving across cells follows completion order;
// onProgress must not block for long, since it is called on the result
// path. Partial aggregation is skipped entirely when onProgress is nil, so
// Run pays nothing for the capability.
func RunProgress(ctx context.Context, sw Sweep, opt Options, onProgress func(Progress)) (*ResultSet, error) {
	if err := sw.validate(); err != nil {
		return nil, err
	}
	cells := sw.Grid.Cells()
	rs := &ResultSet{Sweep: sw, Cells: make([]CellResult, len(cells))}
	reps := sw.reps()

	type slot struct{ ci, rep int }
	var pending []slot
	var tasks []Task
	repsByCell := make([][]Replication, len(cells))
	got := make([][]bool, len(cells))
	left := make([]int, len(cells))
	for ci, c := range cells {
		if opt.Cache != nil {
			if cr, ok := opt.Cache.Get(sw.Key(c)); ok {
				rs.Cells[ci] = cr
				if onProgress != nil {
					onProgress(Progress{CellIndex: ci, DoneReps: reps, TotalReps: reps, FromCache: true, Partial: cr})
				}
				continue
			}
		}
		repsByCell[ci] = make([]Replication, reps)
		got[ci] = make([]bool, reps)
		left[ci] = reps
		key := sw.Key(c)
		for rep := 0; rep < reps; rep++ {
			pending = append(pending, slot{ci, rep})
			tasks = append(tasks, Task{Sim: &TaskSpec{
				Cell: c, Rep: rep, Seed: sw.RepSeed(c, rep), Key: key,
			}})
		}
	}

	var mu sync.Mutex
	err := opt.backend().Submit(ctx, Env{Sweep: &sw}, tasks, func(tr TaskResult) error {
		t := pending[tr.Index]
		if err := tasks[tr.Index].checkOutcome(tr.Outcome); err != nil {
			return err
		}
		mu.Lock()
		repsByCell[t.ci][t.rep] = *tr.Outcome.Rep
		got[t.ci][t.rep] = true
		left[t.ci]--
		done := left[t.ci] == 0
		var cr CellResult
		if done {
			cr = aggregate(cells[t.ci], repsByCell[t.ci])
			rs.Cells[t.ci] = cr
		}
		if onProgress != nil {
			// The partial aggregate covers exactly the arrived replications,
			// in index order (completion order never leaks into aggregates).
			// Holding mu across the callback keeps events serial and each
			// cell's DoneReps monotone.
			ev := Progress{CellIndex: t.ci, DoneReps: reps - left[t.ci], TotalReps: reps}
			if done {
				ev.Partial = cr
			} else {
				arrived := make([]Replication, 0, ev.DoneReps)
				for rep, ok := range got[t.ci] {
					if ok {
						arrived = append(arrived, repsByCell[t.ci][rep])
					}
				}
				ev.Partial = aggregate(cells[t.ci], arrived)
			}
			onProgress(ev)
		}
		mu.Unlock()
		if done && opt.Cache != nil {
			if err := opt.Cache.Put(tasks[tr.Index].Sim.Key, cr); err != nil {
				return fmt.Errorf("exp: caching cell %v: %w", cells[t.ci], err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}
