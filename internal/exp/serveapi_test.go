package exp

import (
	"context"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// Tests for the serving-layer surface of exp: RunProgress streaming,
// TaskKey/OutcomeCache memoization in the point drivers, the mixed
// cell/outcome FileCache records, and the bounded MemCache.

func progressSweep() Sweep {
	return Sweep{
		Name: "progress",
		Grid: Grid{K: []int{2}, Rho: []float64{0.5, 0.7}, MuI: []float64{1}, MuE: []float64{1},
			Policies: []string{"IF"}},
		Reps: 3, BaseSeed: 11, Warmup: 100, Jobs: 1500,
	}
}

func TestRunProgressStreamsPartialAggregates(t *testing.T) {
	sw := progressSweep()
	var events []Progress
	rs, err := RunProgress(context.Background(), sw, Options{Backend: PoolBackend{Workers: 2}}, func(p Progress) {
		events = append(events, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := sw.Grid.Cells()
	wantEvents := len(cells) * sw.Reps
	if len(events) != wantEvents {
		t.Fatalf("got %d progress events, want %d (one per finished replication)", len(events), wantEvents)
	}
	// Per cell: DoneReps monotone 1..Reps, and the final event's Partial is
	// exactly the cell's entry in the ResultSet.
	last := make(map[int]Progress)
	prev := make(map[int]int)
	for _, ev := range events {
		if ev.FromCache {
			t.Fatalf("cell %d claimed a cache hit with no cache configured", ev.CellIndex)
		}
		if ev.TotalReps != sw.Reps {
			t.Fatalf("TotalReps = %d, want %d", ev.TotalReps, sw.Reps)
		}
		if ev.DoneReps != prev[ev.CellIndex]+1 {
			t.Fatalf("cell %d: DoneReps jumped from %d to %d", ev.CellIndex, prev[ev.CellIndex], ev.DoneReps)
		}
		prev[ev.CellIndex] = ev.DoneReps
		if got := len(ev.Partial.Reps); got != ev.DoneReps {
			t.Fatalf("partial aggregate covers %d reps, event says %d", got, ev.DoneReps)
		}
		last[ev.CellIndex] = ev
	}
	for ci := range cells {
		fin, ok := last[ci]
		if !ok || fin.DoneReps != sw.Reps {
			t.Fatalf("cell %d never reached DoneReps == Reps", ci)
		}
		if !reflect.DeepEqual(fin.Partial, rs.Cells[ci]) {
			t.Fatalf("cell %d: final progress aggregate differs from ResultSet entry", ci)
		}
	}
}

func TestRunProgressCachedCellsAnnounced(t *testing.T) {
	sw := progressSweep()
	cache := NewMemCache()
	if _, err := Run(context.Background(), sw, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	var events []Progress
	rs, err := RunProgress(context.Background(), sw, Options{Cache: cache}, func(p Progress) {
		events = append(events, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := sw.Grid.Cells()
	if len(events) != len(cells) {
		t.Fatalf("warm re-run emitted %d events, want one FromCache event per cell (%d)", len(events), len(cells))
	}
	for i, ev := range events {
		if !ev.FromCache || ev.DoneReps != sw.Reps {
			t.Fatalf("event %d: %+v, want FromCache with all reps done", i, ev)
		}
		if !reflect.DeepEqual(ev.Partial, rs.Cells[ev.CellIndex]) {
			t.Fatalf("cached cell %d: announced aggregate differs from ResultSet", ev.CellIndex)
		}
	}
}

func TestRunProgressNilCallbackMatchesRun(t *testing.T) {
	sw := progressSweep()
	a, err := Run(context.Background(), sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunProgress(context.Background(), sw, Options{}, func(Progress) {})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunProgress with a callback produced a different ResultSet than Run")
	}
}

func TestTaskKeyKinds(t *testing.T) {
	sw := progressSweep()
	c := sw.Grid.Cells()[0]
	sim := Task{Sim: &TaskSpec{Cell: c, Rep: 2, Seed: sw.RepSeed(c, 2), Key: sw.Key(c)}}
	key, ok := TaskKey(sim)
	if !ok || key != sw.Key(c)+"|rep=2" {
		t.Fatalf("sim TaskKey = %q, %t; want %q (the fabric dispatcher's historical format)", key, ok, sw.Key(c)+"|rep=2")
	}
	if _, ok := TaskKey(Task{Sim: &TaskSpec{Cell: c, Rep: 2}}); ok {
		t.Fatal("a Sim spec without its precomputed Key must not be cacheable")
	}
	if _, ok := TaskKey(Task{}); ok {
		t.Fatal("an empty task must not be cacheable")
	}
	kinds := []Task{
		{Analyze: &AnalyzePoint{K: 2, Rho: 0.5, MuI: 1, MuE: 1}},
		{Ablation: &AblationPoint{K: 2, Rho: 0.5, MuI: 1}},
		{Dominance: &DominanceTrace{K: 2, Rho: 0.5, MuI: 1, MuE: 1, PolicyA: "IF", PolicyB: "EF", Arrivals: 10, Tol: 1e-7, Seed: 1}},
	}
	seen := map[string]bool{}
	for _, task := range kinds {
		k, ok := TaskKey(task)
		if !ok {
			t.Fatalf("%s: no key", task.Label())
		}
		if seen[k] {
			t.Fatalf("%s: key %q collides with another kind", task.Label(), k)
		}
		seen[k] = true
		// Identity must be stable: the same spec keys the same way twice.
		if k2, _ := TaskKey(task); k2 != k {
			t.Fatalf("%s: TaskKey not deterministic (%q vs %q)", task.Label(), k, k2)
		}
	}
}

// countingBackend wraps PoolBackend and counts tasks actually submitted.
type countingBackend struct {
	submitted atomic.Int64
	inner     Backend
}

func (b *countingBackend) Submit(ctx context.Context, env Env, tasks []Task, emit func(TaskResult) error) error {
	b.submitted.Add(int64(len(tasks)))
	return b.inner.Submit(ctx, env, tasks, emit)
}

func TestTaskCacheMemoizesPointDrivers(t *testing.T) {
	dir := t.TempDir()
	fc, err := OpenFileCache(filepath.Join(dir, "tasks.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	be := &countingBackend{inner: PoolBackend{}}
	opt := Options{Cache: fc, Backend: be}
	muIs := []float64{0.5, 1, 2}
	cold, err := Figure5(context.Background(), 2, 0.5, muIs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := be.submitted.Load(); got != int64(len(muIs)) {
		t.Fatalf("cold run submitted %d tasks, want %d", got, len(muIs))
	}
	// Warm run: same points, zero backend submissions, identical numbers —
	// including through a fresh handle on the same file (persistence).
	fc2, err := OpenFileCache(filepath.Join(dir, "tasks.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if fc2.OutcomeLen() != len(muIs) {
		t.Fatalf("reloaded cache holds %d outcomes, want %d", fc2.OutcomeLen(), len(muIs))
	}
	warm, err := Figure5(context.Background(), 2, 0.5, muIs, Options{Cache: fc2, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	if got := be.submitted.Load(); got != int64(len(muIs)) {
		t.Fatalf("warm run submitted %d extra tasks, want 0", got-int64(len(muIs)))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm (cached) Figure5 points differ from the cold run")
	}
}

// TestCellsOnlyCacheLeavesPointDriversAlone: a Cache that is no
// OutcomeCache (MemCache keeps cells only) changes nothing for the point
// drivers: the same points as with no cache, every task reaches the
// backend, and nothing is stored.
func TestCellsOnlyCacheLeavesPointDriversAlone(t *testing.T) {
	mem := NewMemCache()
	if _, ok := any(mem).(OutcomeCache); ok {
		t.Fatal("MemCache implements OutcomeCache; this test needs a cells-only cache")
	}
	muIs := []float64{0.5, 1, 2}
	plain, err := Figure5(context.Background(), 2, 0.5, muIs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	be := &countingBackend{inner: PoolBackend{}}
	got, err := Figure5(context.Background(), 2, 0.5, muIs, Options{Cache: mem, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatal("Figure5 with a cells-only cache differs from the run without one")
	}
	if n := be.submitted.Load(); n != int64(len(muIs)) {
		t.Fatalf("submitted %d tasks, want %d", n, len(muIs))
	}
	if mem.Len() != 0 {
		t.Fatalf("cells-only cache stored %d entries, want 0", mem.Len())
	}
}

func TestFileCacheMixedRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	fc, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	cr := CellResult{Cell: Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "IF"}, ET: 1.5}
	if err := fc.Put("cell-key", cr); err != nil {
		t.Fatal(err)
	}
	out := Outcome{Analyze: &AnalyzeOut{TIF: 1, TEF: 2}}
	if err := fc.PutOutcome("task-key", out); err != nil {
		t.Fatal(err)
	}
	fc.Close()
	re, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Corrupt() != 0 {
		t.Fatalf("mixed file reported %d corrupt lines", re.Corrupt())
	}
	gotCR, ok := re.Get("cell-key")
	if !ok || !reflect.DeepEqual(gotCR, cr) {
		t.Fatalf("cell record did not round-trip: %+v, %t", gotCR, ok)
	}
	gotOut, ok := re.GetOutcome("task-key")
	if !ok || !reflect.DeepEqual(gotOut, out) {
		t.Fatalf("outcome record did not round-trip: %+v, %t", gotOut, ok)
	}
	// The two namespaces are disjoint.
	if _, ok := re.Get("task-key"); ok {
		t.Fatal("outcome key leaked into the cell namespace")
	}
	if _, ok := re.GetOutcome("cell-key"); ok {
		t.Fatal("cell key leaked into the outcome namespace")
	}
}

func TestMemCacheBounded(t *testing.T) {
	c := NewMemCacheSized(4, 0)
	cr := CellResult{ET: 1}
	for i := 0; i < 10; i++ {
		if err := c.Put(string(rune('a'+i)), cr); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want the cap 4", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 6 {
		t.Fatalf("Evictions = %d, want 6", st.Evictions)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("the coldest entry survived past the cap")
	}
	if _, ok := c.Get(string(rune('a' + 9))); !ok {
		t.Fatal("the hottest entry was evicted")
	}
}

func TestCorruptWarning(t *testing.T) {
	if msg := CorruptWarning("c.jsonl", 0); msg != "" {
		t.Fatalf("clean cache produced a warning: %q", msg)
	}
	msg := CorruptWarning("c.jsonl", 3)
	want := "warning: cache c.jsonl: skipped 3 corrupt line(s); the affected entries will be recomputed"
	if msg != want {
		t.Fatalf("warning = %q, want %q", msg, want)
	}
}
