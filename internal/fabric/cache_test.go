package fabric

// The dispatcher's outcome cache is an exp.FileCache: outcomes appended by
// one dispatcher life are served by the next, files in the line shape the
// dispatcher has always written load unchanged, an entry without a result
// of its task's kind is a miss, never a hit the client must reject, and a
// failed Put does not cost the next one.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/exp"
)

// openCache opens an exp.FileCache at path and closes it with the test.
func openCache(t *testing.T, path string) *exp.FileCache {
	t.Helper()
	fc, err := exp.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fc.Close() })
	return fc
}

// sortedLines returns the file's lines in sorted order, so files written in
// different task-completion orders compare equal.
func sortedLines(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		lines = append(lines, string(l))
	}
	slices.Sort(lines)
	return lines
}

// TestDispatcherCacheWrongKindIsMiss seeds the cache file with a decodable
// line that carries no result for its task's kind — an empty outcome under
// each sim task's key. The dispatcher must recompute those tasks instead of
// serving entries the client rejects as backend drift: the sweep finishes
// byte-identical to the pool and no cache hit is counted.
func TestDispatcherCacheWrongKindIsMiss(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Backend: exp.PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	var seed bytes.Buffer
	for _, task := range tasks {
		key, ok := exp.TaskKey(task)
		if !ok {
			t.Fatalf("%s has no cache key", task.Label())
		}
		k, err := json.Marshal(key)
		if err != nil {
			t.Fatal(err)
		}
		seed.WriteString(`{"key":` + string(k) + `,"out":{}}` + "\n")
	}
	if err := os.WriteFile(path, seed.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cache := openCache(t, path)
	if cache.OutcomeLen() != len(tasks) || cache.Corrupt() != 0 {
		t.Fatalf("seeded cache loaded %d outcomes / %d corrupt, want %d / 0", cache.OutcomeLen(), cache.Corrupt(), len(tasks))
	}
	d, addr := startDispatcher(t, DispatcherOptions{Cache: cache})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})

	if resultJSON(t, pool) != resultJSON(t, runFabric(t, addr, sw)) {
		t.Fatal("sweep over a cache of wrong-kind entries differs from the pool")
	}
	if d.CacheHits() != 0 {
		t.Fatalf("CacheHits = %d, want 0: a wrong-kind entry is a miss", d.CacheHits())
	}
}

// TestDispatcherCacheAcrossRestart: a dispatcher on an exp.FileCache
// finishes a sweep and closes; a second dispatcher on the reopened file
// answers the resubmitted sweep entirely from the cache, byte-identical to
// the pool. A file written in the dispatcher's historical outcome line
// shape, {"key":…,"out":…}, loads with the same outcomes — and the cache
// writes exactly that shape.
func TestDispatcherCacheAcrossRestart(t *testing.T) {
	sw := fabricSweep()
	pool, err := exp.Run(context.Background(), sw, exp.Options{Backend: exp.PoolBackend{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, pool)
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "outcomes.jsonl")

	fc1, err := exp.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	d1 := NewDispatcher(DispatcherOptions{Cache: fc1})
	addr1 := serveDispatcherOn(t, d1, "127.0.0.1:0")
	startWorker(t, &Worker{Dispatcher: addr1, Name: "w1"})
	if resultJSON(t, runFabric(t, addr1, sw)) != want {
		t.Fatal("first dispatcher's sweep differs from the pool")
	}
	d1.Close()
	if err := fc1.Close(); err != nil {
		t.Fatal(err)
	}

	fc2 := openCache(t, path)
	if fc2.OutcomeLen() != len(tasks) || fc2.Corrupt() != 0 {
		t.Fatalf("reopened cache holds %d outcomes / %d corrupt, want %d / 0", fc2.OutcomeLen(), fc2.Corrupt(), len(tasks))
	}
	d2, addr2 := startDispatcher(t, DispatcherOptions{Cache: fc2})
	startWorker(t, &Worker{Dispatcher: addr2, Name: "w2"})
	if resultJSON(t, runFabric(t, addr2, sw)) != want {
		t.Fatal("sweep answered from the reopened cache differs from the pool")
	}
	if d2.CacheHits() != int64(len(tasks)) {
		t.Fatalf("CacheHits = %d, want all %d tasks from the reopened cache", d2.CacheHits(), len(tasks))
	}

	legacy := filepath.Join(dir, "legacy.jsonl")
	var b bytes.Buffer
	for _, task := range tasks {
		key, _ := exp.TaskKey(task)
		out, ok := fc2.GetOutcome(key)
		if !ok {
			t.Fatalf("%s missing from the reopened cache", task.Label())
		}
		line, err := json.Marshal(struct {
			Key string      `json:"key"`
			Out exp.Outcome `json:"out"`
		}{key, out})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	if err := os.WriteFile(legacy, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	lc := openCache(t, legacy)
	if lc.OutcomeLen() != len(tasks) || lc.Len() != 0 || lc.Corrupt() != 0 {
		t.Fatalf("legacy-shape file loaded %d outcomes, %d cells, %d corrupt; want %d, 0, 0", lc.OutcomeLen(), lc.Len(), lc.Corrupt(), len(tasks))
	}
	for _, task := range tasks {
		key, _ := exp.TaskKey(task)
		got, _ := lc.GetOutcome(key)
		wantOut, _ := fc2.GetOutcome(key)
		if !reflect.DeepEqual(got, wantOut) {
			t.Fatalf("%s: legacy-shape outcome %+v, cache has %+v", task.Label(), got, wantOut)
		}
	}
	if !slices.Equal(sortedLines(t, path), sortedLines(t, legacy)) {
		t.Fatal("the cache's outcome lines differ from the dispatcher's historical line shape")
	}
}

// TestFileOutcomeCacheFailedPutKeepsNextRecord: the dispatcher only logs a
// failed outcome Put and carries on, so a failure must not cost the next
// record. The -cache file loads with a torn tail, and a Put fails before
// writing a byte (the path is briefly a directory); the next Put must
// still start on a fresh line and survive a reopen.
func TestFileOutcomeCacheFailedPutKeepsNextRecord(t *testing.T) {
	sw := exp.Sweep{Name: "cache", Reps: 1, Warmup: 50, Jobs: 300}
	c := exp.Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "IF"}
	out, err := exp.ExecuteTask(
		exp.Env{Sweep: &sw},
		exp.Task{Sim: &exp.TaskSpec{Cell: c, Rep: 0, Seed: sw.RepSeed(c, 0), Key: sw.Key(c)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "outcomes.jsonl")
	if err := os.WriteFile(path, []byte(`{"key":"torn","out":{"rep`), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err := exp.OpenFileCache(path)
	if err != nil {
		t.Fatal(err)
	}
	aside := filepath.Join(dir, "aside.jsonl")
	if err := os.Rename(path, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fc.PutOutcome("failed", out); err == nil {
		t.Fatal("PutOutcome onto a directory succeeded")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, path); err != nil {
		t.Fatal(err)
	}
	if err := fc.PutOutcome("after", out); err != nil {
		t.Fatal(err)
	}
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}

	re := openCache(t, path)
	got, ok := re.GetOutcome("after")
	if !ok || re.Corrupt() != 1 {
		t.Fatalf("Put after a failed Put was lost: found %v, %d corrupt line(s), want found and 1", ok, re.Corrupt())
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("reloaded outcome %+v, put %+v", got, out)
	}
	if _, ok := re.GetOutcome("failed"); ok {
		t.Fatal("the failed Put's outcome was stored")
	}
}
