package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func smallSweep() Sweep {
	return Sweep{
		Name: "test",
		Grid: Grid{
			K:        []int{2},
			Rho:      []float64{0.5, 0.7},
			MuI:      []float64{1, 2},
			MuE:      []float64{1},
			Policies: []string{"IF", "EF"},
		},
		Reps:   3,
		Warmup: 500,
		Jobs:   3_000,
	}
}

func TestGridCells(t *testing.T) {
	g := smallSweep().Grid
	cells := g.Cells()
	if len(cells) != 2*2*1*2 {
		t.Fatalf("want 8 cells, got %d", len(cells))
	}
	// Row-major: K, Rho, MuI, MuE, Policy.
	want := Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "IF"}
	if cells[0] != want {
		t.Fatalf("first cell %+v, want %+v", cells[0], want)
	}
	if cells[1].Policy != "EF" || cells[2].MuI != 2 {
		t.Fatalf("unexpected expansion order: %+v", cells[:4])
	}
}

func TestGridScenarioCells(t *testing.T) {
	g := Grid{K: []int{4}, Rho: []float64{0.7}, Scenarios: []string{"mapreduce", "hpcmalleable"}, Policies: []string{"IF"}}
	cells := g.Cells()
	if len(cells) != 2 {
		t.Fatalf("want 2 cells, got %d", len(cells))
	}
	if cells[0].Scenario != "mapreduce" || cells[1].Scenario != "hpcmalleable" {
		t.Fatalf("unexpected scenario cells: %+v", cells)
	}
}

// TestGridNumCells: the arithmetic count agrees with the expansion on every
// axis combination, including the preset axes' precedence over MuI/MuE and
// the IF default for an empty policy list, and saturates on overflow.
func TestGridNumCells(t *testing.T) {
	ks, rhos := []int{2, 4, 8}, []float64{0.5, 0.7}
	for name, g := range map[string]Grid{
		"empty":             {},
		"no rho":            {K: ks, MuI: []float64{1}, MuE: []float64{1}},
		"no muE":            {K: ks, Rho: rhos, MuI: []float64{1, 2}},
		"default policy":    {K: ks, Rho: rhos, MuI: []float64{1, 2}, MuE: []float64{1, 3, 5}},
		"policies":          {K: ks, Rho: rhos, MuI: []float64{1}, MuE: []float64{1, 3}, Policies: []string{"IF", "EF", "EQUI"}},
		"scenarios":         {K: ks, Rho: rhos, Scenarios: []string{"mapreduce", "hpcmalleable"}, Policies: []string{"IF", "EF"}},
		"scenarios over mu": {K: ks, Rho: rhos, MuI: []float64{1, 2, 3}, MuE: []float64{1}, Scenarios: []string{"mapreduce"}},
		"mixes":             {K: ks, Rho: rhos, Mixes: []string{"threeclass", "cappedladder"}},
		"mixes over all":    {K: ks, Rho: rhos, MuI: []float64{1, 2}, MuE: []float64{1}, Scenarios: []string{"mapreduce"}, Mixes: []string{"threeclass"}, Policies: []string{"IF", "LFF"}},
		"empty mixes axis":  {K: ks, Rho: rhos, Mixes: []string{}, MuI: []float64{1}, MuE: []float64{1}},
	} {
		if got, want := g.NumCells(), len(g.Cells()); got != want {
			t.Errorf("%s: NumCells %d, Cells expands to %d", name, got, want)
		}
	}
	// 2^16 values on each of four axes: 2^64 cells overflow int.
	axis := make([]float64, 1<<16)
	huge := Grid{K: make([]int, 1<<16), Rho: axis, MuI: axis, MuE: axis}
	if got := huge.NumCells(); got != math.MaxInt {
		t.Fatalf("overflowing grid: NumCells %d, want math.MaxInt", got)
	}
	huge.Rho = nil
	if got := huge.NumCells(); got != 0 {
		t.Fatalf("grid with an empty axis: NumCells %d, want 0", got)
	}
}

func TestSweepValidate(t *testing.T) {
	ok := smallSweep()
	if err := ok.validate(); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*Sweep)
		want string
	}{
		{"no jobs", func(s *Sweep) { s.Jobs = 0 }, "Jobs"},
		{"empty grid", func(s *Sweep) { s.Grid = Grid{} }, "empty grid"},
		{"bad rho", func(s *Sweep) { s.Grid.Rho = []float64{1.5} }, "rho"},
		{"bad k", func(s *Sweep) { s.Grid.K = []int{0} }, "k"},
		{"bad mu", func(s *Sweep) { s.Grid.MuI = []float64{-1} }, "service rates"},
		{"bad policy", func(s *Sweep) { s.Grid.Policies = []string{"NOPE"} }, "unknown policy"},
		{"fractional THRESH cap", func(s *Sweep) { s.Grid.Policies = []string{"THRESH:2.5"} }, "bad cap"},
		{"THRESH cap with a tail", func(s *Sweep) { s.Grid.Policies = []string{"THRESH:2abc"} }, "bad cap"},
		{"spaced THRESH cap", func(s *Sweep) { s.Grid.Policies = []string{"THRESH: 2"} }, "bad cap"},
		{"negative THRESH cap", func(s *Sweep) { s.Grid.Policies = []string{"THRESH:-3"} }, "bad cap"},
		{"spaced PRIO order", func(s *Sweep) { s.Grid.Policies = []string{"PRIO: 1 > 0"} }, "bad priority order"},
		{"bad scenario", func(s *Sweep) {
			s.Grid = Grid{K: []int{2}, Rho: []float64{0.5}, Scenarios: []string{"nope"}}
		}, "unknown scenario"},
		{"scenario plus mu", func(s *Sweep) { s.Grid.Scenarios = []string{"mapreduce"} }, "mutually exclusive"},
		{"bad batches", func(s *Sweep) { s.Batches = 1 }, "Batches"},
		{"negative warmup", func(s *Sweep) { s.Warmup = -1 }, "Warmup"},
	}
	for _, tc := range cases {
		sw := smallSweep()
		tc.mod(&sw)
		err := sw.validate()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestDeterministicAcrossWorkerCounts is the engine's core guarantee: the
// same sweep yields bit-identical aggregates for any pool size, because
// seeds derive from cell identity and aggregation consumes replications in
// index order.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	sw := smallSweep()
	var sets []*ResultSet
	for _, workers := range []int{1, 3, 8} {
		rs, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: workers}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sets = append(sets, rs)
	}
	for i := 1; i < len(sets); i++ {
		if !reflect.DeepEqual(sets[0].Cells, sets[i].Cells) {
			t.Fatalf("results differ between worker counts 1 and %d", []int{1, 3, 8}[i])
		}
	}
}

// TestReplicationSeedsDistinct: every (cell, replication) pair must draw an
// independent stream.
func TestReplicationSeedsDistinct(t *testing.T) {
	rs, err := Run(context.Background(), smallSweep(), Options{Backend: PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]string{}
	for _, cr := range rs.Cells {
		for _, rep := range cr.Reps {
			at := fmt.Sprintf("%v rep %d", cr.Cell, rep.Rep)
			if prev, dup := seen[rep.Seed]; dup {
				t.Fatalf("seed %d reused by %s and %s", rep.Seed, prev, at)
			}
			seen[rep.Seed] = at
		}
	}
}

// TestSeedsIndependentAcrossBaseSeeds guards against algebraic seed
// derivation: (BaseSeed=1, rep=1) must not collide with (BaseSeed=2,
// rep=0), or pooling data from two base seeds would double-count samples.
func TestSeedsIndependentAcrossBaseSeeds(t *testing.T) {
	cell := smallSweep().Grid.Cells()[0]
	seen := map[uint64]string{}
	for base := uint64(1); base <= 4; base++ {
		sw := smallSweep()
		sw.BaseSeed = base
		for rep := 0; rep < 8; rep++ {
			seed := sw.RepSeed(cell, rep)
			at := fmt.Sprintf("base %d rep %d", base, rep)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("seed %d shared by %s and %s", seed, prev, at)
			}
			seen[seed] = at
		}
	}
}

// countingCache wraps a MemCache and counts hits and puts.
type countingCache struct {
	inner *MemCache
	hits  atomic.Int64
	puts  atomic.Int64
}

func (c *countingCache) Get(key string) (CellResult, bool) {
	cr, ok := c.inner.Get(key)
	if ok {
		c.hits.Add(1)
	}
	return cr, ok
}

func (c *countingCache) Put(key string, cr CellResult) error {
	c.puts.Add(1)
	return c.inner.Put(key, cr)
}

func TestCacheMakesRerunsIncremental(t *testing.T) {
	sw := smallSweep()
	cache := &countingCache{inner: NewMemCache()}
	first, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 4}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.puts.Load(); got != int64(len(first.Cells)) {
		t.Fatalf("first run put %d cells, want %d", got, len(first.Cells))
	}
	second, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 4}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.puts.Load(); got != int64(len(first.Cells)) {
		t.Fatalf("second run recomputed cells: %d puts total", got)
	}
	if got := cache.hits.Load(); got != int64(len(first.Cells)) {
		t.Fatalf("second run hit cache %d times, want %d", got, len(first.Cells))
	}
	if !reflect.DeepEqual(first.Cells, second.Cells) {
		t.Fatal("cached results differ from computed results")
	}
	// A different budget must not hit the old entries.
	swLonger := sw
	swLonger.Jobs *= 2
	if _, err := Run(context.Background(), swLonger, Options{Backend: PoolBackend{Workers: 4}, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if got := cache.puts.Load(); got != 2*int64(len(first.Cells)) {
		t.Fatalf("changed budget reused stale cache entries (%d puts)", got)
	}
}

// cancelAfterCache cancels the context once nputs cells have been cached.
type cancelAfterCache struct {
	inner  Cache
	cancel context.CancelFunc
	nputs  int
	mu     sync.Mutex
	count  int
}

func (c *cancelAfterCache) Get(key string) (CellResult, bool) { return c.inner.Get(key) }

func (c *cancelAfterCache) Put(key string, cr CellResult) error {
	err := c.inner.Put(key, cr)
	c.mu.Lock()
	c.count++
	if c.count == c.nputs {
		c.cancel()
	}
	c.mu.Unlock()
	return err
}

// TestCancellationLeavesCacheConsistent: canceling mid-sweep must (a) abort
// Run with the context error and (b) leave only fully-completed cells in the
// cache, so a rerun completes and matches an uncached run exactly.
func TestCancellationLeavesCacheConsistent(t *testing.T) {
	sw := smallSweep()
	mem := NewMemCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trigger := &cancelAfterCache{inner: mem, cancel: cancel, nputs: 2}
	_, err := Run(ctx, sw, Options{Backend: PoolBackend{Workers: 2}, Cache: trigger})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	banked := mem.Len()
	if banked == 0 {
		t.Fatal("no cells banked before cancellation")
	}
	if banked == len(sw.Grid.Cells()) {
		t.Skip("sweep finished before cancellation took effect")
	}

	resumed, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 2}, Cache: mem})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Cells, fresh.Cells) {
		t.Fatal("resumed-from-cache results differ from a fresh run")
	}
}

func TestFileCacheRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	fc, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	sw := smallSweep()
	sw.Reps = 1
	sw.Jobs = 1_000
	first, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 2}, Cache: fc})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh handle on the same file must serve every cell.
	reopened, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != len(first.Cells) {
		t.Fatalf("reopened cache has %d cells, want %d", reopened.Len(), len(first.Cells))
	}
	for _, c := range sw.Grid.Cells() {
		cr, ok := reopened.Get(sw.Key(c))
		if !ok {
			t.Fatalf("cell %v missing after reload", c)
		}
		if !reflect.DeepEqual(cr, first.Cells[indexOfCell(first, c)]) {
			t.Fatalf("cell %v corrupted by roundtrip", c)
		}
	}
	// A truncated trailing line (hard kill mid-append) must not poison the
	// cache: the corrupt line is skipped, the rest load.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, []byte(`{"key":"abc","result":{tru`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	damaged, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if damaged.Len() != len(first.Cells) {
		t.Fatalf("damaged cache lost valid lines: %d of %d", damaged.Len(), len(first.Cells))
	}
	// ... and the skip is counted, not silent (cmd/simulate warns on it).
	if got := damaged.Corrupt(); got != 1 {
		t.Fatalf("damaged cache reports %d corrupt lines, want 1", got)
	}
	if got := reopened.Corrupt(); got != 0 {
		t.Fatalf("clean cache reports %d corrupt lines", got)
	}
	if err := damaged.Close(); err != nil {
		t.Fatal(err)
	}
	// Close with no Put ever issued must also be a no-op.
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileCachePersistentAppendHandle: Puts go through one long-lived
// O_APPEND handle; Close releases it and a later Put transparently reopens.
func TestFileCachePersistentAppendHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	fc, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.Put("k1", CellResult{ET: 1}); err != nil {
		t.Fatal(err)
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fc.Put("k2", CellResult{ET: 2}); err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	back, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("cache holds %d entries after close/reopen-append, want 2", back.Len())
	}
}

// TestFileCacheTornTailRepair: a hard kill mid-append leaves a record torn
// without its newline. The next Put must land on its own line instead of
// being glued onto the stump, so a reload keeps it and counts only the
// torn record as corrupt.
func TestFileCacheTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	fc, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k1", "k2"} {
		if err := fc.Put(k, CellResult{ET: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file in the middle of the second record.
	cut := bytes.IndexByte(data, '\n') + 10
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := torn.Put("k3", CellResult{ET: 3}); err != nil {
		t.Fatal(err)
	}
	if err := torn.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if cr, ok := back.Get("k3"); !ok || cr.ET != 3 {
		t.Fatalf("record appended after a torn tail lost on reload: %+v, %v", cr, ok)
	}
	if _, ok := back.Get("k1"); !ok {
		t.Fatal("intact record before the torn tail lost on reload")
	}
	if got := back.Corrupt(); got != 1 {
		t.Fatalf("reload reports %d corrupt lines, want 1 (the torn record)", got)
	}
}

// TestFileCacheCrashPoints cuts a cache holding both cell and outcome
// records at every byte offset — what a hard kill mid-append can leave —
// and reopens it: exactly the records whose JSON survived load, a cut one
// counts as corrupt, and a Put after the reopen survives the next open.
func TestFileCacheCrashPoints(t *testing.T) {
	type entry struct {
		key  string
		cell *CellResult
		out  *Outcome
	}
	entries := []entry{
		{key: "c1", cell: &CellResult{Cell: Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "IF"}, ET: 1.5}},
		{key: "o1", out: &Outcome{Analyze: &AnalyzeOut{TIF: 1, TEF: 2}}},
		{key: "c2", cell: &CellResult{ET: 2.5}},
		{key: "o2", out: &Outcome{Rep: &Replication{Rep: 1, MeanT: 3.5}}},
	}
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	fc, err := OpenFileCache(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.cell != nil {
			err = fc.Put(e.key, *e.cell)
		} else {
			err = fc.PutOutcome(e.key, *e.out)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := fc.Close(); err != nil {
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
	if len(ends) != len(entries) {
		t.Fatalf("reference cache has %d lines for %d records", len(ends), len(entries))
	}

	path := filepath.Join(dir, "cut.jsonl")
	after := CellResult{ET: 9}
	for offset := 0; offset <= len(data); offset++ {
		if err := os.WriteFile(path, data[:offset], 0o644); err != nil {
			t.Fatal(err)
		}
		whole, cut := 0, 0
		for whole < len(entries) && ends[whole] <= offset {
			whole++
		}
		if whole < len(entries) && offset > starts[whole] {
			cut = 1
		}
		re, err := OpenFileCache(path)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", offset, err)
		}
		if re.Corrupt() != cut {
			t.Fatalf("offset %d: reopen counted %d corrupt lines, want %d", offset, re.Corrupt(), cut)
		}
		for i, e := range entries {
			cr, okCell := re.Get(e.key)
			out, okOut := re.GetOutcome(e.key)
			switch {
			case i >= whole && (okCell || okOut):
				t.Fatalf("offset %d: record %s loaded though its JSON was cut", offset, e.key)
			case i < whole && e.cell != nil && (!okCell || !reflect.DeepEqual(cr, *e.cell)):
				t.Fatalf("offset %d: cell %s lost or mangled: %+v", offset, e.key, cr)
			case i < whole && e.out != nil && (!okOut || !reflect.DeepEqual(out, *e.out)):
				t.Fatalf("offset %d: outcome %s lost or mangled: %+v", offset, e.key, out)
			}
		}
		if err := re.Put("after", after); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := OpenFileCache(path)
		if err != nil {
			t.Fatal(err)
		}
		if cr, ok := back.Get("after"); !ok || !reflect.DeepEqual(cr, after) {
			t.Fatalf("offset %d: Put after the reopen lost on the next open: %+v, %t", offset, cr, ok)
		}
		if back.Len()+back.OutcomeLen() != whole+1 || back.Corrupt() != cut {
			t.Fatalf("offset %d: next open holds %d records / %d corrupt, want %d / %d",
				offset, back.Len()+back.OutcomeLen(), back.Corrupt(), whole+1, cut)
		}
	}
}

func indexOfCell(rs *ResultSet, c Cell) int {
	for i, cr := range rs.Cells {
		if cr.Cell == c {
			return i
		}
	}
	return -1
}

func TestMapOrderAndParallelism(t *testing.T) {
	got, err := Map(context.Background(), 8, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapPanicIsolation(t *testing.T) {
	_, err := Map(context.Background(), 4, 10, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	sentinel := errors.New("task failed")
	var ran atomic.Int64
	_, err := Map(context.Background(), 2, 1000, func(i int) (int, error) {
		ran.Add(1)
		if i == 5 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
	if ran.Load() == 1000 {
		t.Fatal("error did not cancel remaining tasks")
	}
}

// TestMapRunsEachIndexOnce: for every worker count from 1 to 8 and every
// task count from 0 to 50, each index runs exactly once and its result
// lands at its index; a context canceled before the call runs nothing and
// returns its error.
func TestMapRunsEachIndexOnce(t *testing.T) {
	for workers := 1; workers <= 8; workers++ {
		for n := 0; n <= 50; n++ {
			runs := make([]atomic.Int32, n)
			got, err := Map(context.Background(), workers, n, func(i int) (int, error) {
				runs[i].Add(1)
				return i, nil
			})
			if err != nil || len(got) != n {
				t.Fatalf("workers %d, n %d: %d results, err %v", workers, n, len(got), err)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 || got[i] != i {
					t.Fatalf("workers %d, n %d: index %d ran %d times, out[%d] = %d", workers, n, i, c, i, got[i])
				}
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for workers := 1; workers <= 8; workers++ {
		for _, n := range []int{0, 1, 10} {
			var ran atomic.Int32
			_, err := Map(ctx, workers, n, func(i int) (int, error) {
				ran.Add(1)
				return i, nil
			})
			if !errors.Is(err, context.Canceled) || ran.Load() != 0 {
				t.Fatalf("canceled ctx, workers %d, n %d: err %v, %d tasks ran", workers, n, err, ran.Load())
			}
		}
	}
}

func TestCachePutErrorSurfaced(t *testing.T) {
	sw := smallSweep()
	sw.Reps = 1
	_, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 2}, Cache: failingCache{}})
	if err == nil || !strings.Contains(err.Error(), "caching cell") {
		t.Fatalf("cache failure not surfaced: %v", err)
	}
}

type failingCache struct{}

func (failingCache) Get(string) (CellResult, bool) { return CellResult{}, false }
func (failingCache) Put(string, CellResult) error  { return errors.New("disk full") }

// TestWorkerPoolStressRace hammers the dispatcher with more workers than
// cells, shared caches, and repeated runs; run under -race it is the
// regression net for pool data races (scripts/ci.sh runs it explicitly).
func TestWorkerPoolStressRace(t *testing.T) {
	sw := Sweep{
		Name: "stress",
		Grid: Grid{
			K:        []int{1, 2},
			Rho:      []float64{0.4, 0.6},
			MuI:      []float64{1, 2},
			MuE:      []float64{1},
			Policies: []string{"IF", "EF", "FCFS"},
		},
		Reps: 2,
		Jobs: 300,
	}
	cache := NewMemCache()
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 16}, Cache: cache}); err != nil {
				t.Errorf("stress run: %v", err)
			}
		}()
	}
	wg.Wait()
	rs, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 16}, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rs.Cells {
		if cr.ET <= 0 {
			t.Fatalf("cell %v has nonsense E[T] %v", cr.Cell, cr.ET)
		}
	}
}

func TestAutoWarmupAndBatchCI(t *testing.T) {
	sw := Sweep{
		Name:       "series",
		Grid:       Grid{K: []int{2}, Rho: []float64{0.6}, MuI: []float64{1}, MuE: []float64{1}, Policies: []string{"IF"}},
		Reps:       1,
		Jobs:       4_000,
		AutoWarmup: true,
		Batches:    10,
	}
	rs, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	cr := rs.Cells[0]
	rep := cr.Reps[0]
	if rep.Trimmed < 0 || rep.Trimmed > int(sw.Jobs)/2+5 {
		t.Fatalf("implausible trim %d", rep.Trimmed)
	}
	if rep.BatchCI <= 0 {
		t.Fatalf("batch-means CI not computed: %+v", rep)
	}
	if rep.ESS <= 0 || rep.ESS > float64(rep.Completions) {
		t.Fatalf("implausible effective sample size %v of %d", rep.ESS, rep.Completions)
	}
	// Single replication: the cell CI falls back to the batch-means CI.
	if cr.ETCI != rep.BatchCI {
		t.Fatalf("cell CI %v != batch CI %v", cr.ETCI, rep.BatchCI)
	}
	if cr.ET <= 0 {
		t.Fatalf("nonsense E[T] %v", cr.ET)
	}
}

func TestScenarioSweepRuns(t *testing.T) {
	sw := Sweep{
		Name: "scenarios",
		Grid: Grid{
			K:         []int{4},
			Rho:       []float64{0.6},
			Scenarios: []string{"mapreduce", "hpcmalleable"},
			Policies:  []string{"IF", "EF"},
		},
		Reps: 1,
		Jobs: 2_000,
	}
	rs, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range rs.Cells {
		if cr.ET <= 0 {
			t.Fatalf("scenario cell %v has nonsense E[T] %v", cr.Cell, cr.ET)
		}
	}
}

func TestResultSetEmitters(t *testing.T) {
	sw := smallSweep()
	sw.Reps = 2
	sw.Jobs = 1_000
	rs, err := Run(context.Background(), sw, Options{Backend: PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := rs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(rs.Cells) {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+len(rs.Cells))
	}
	if !strings.HasPrefix(lines[0], "k,rho,muI,muE,scenario,mix,policy") {
		t.Fatalf("csv header: %s", lines[0])
	}
	var js strings.Builder
	if err := rs.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"cells"`) || !strings.Contains(js.String(), `"reps"`) {
		t.Fatalf("json missing fields: %.200s", js.String())
	}
}
