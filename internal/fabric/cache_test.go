package fabric

// FileOutcomeCache durability: outcomes appended by one dispatcher life are
// served by the next, and a line truncated by a hard kill mid-append is
// skipped — never fatal — because cached entries are an optimization, not
// the source of truth.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/exp"
)

// sampleOutcome produces a real task outcome (so the JSON shape under test
// is the production one, not a synthetic stub).
func sampleOutcome(t *testing.T) exp.Outcome {
	t.Helper()
	sw := exp.Sweep{Name: "cache", Reps: 1, Warmup: 50, Jobs: 300}
	c := exp.Cell{K: 2, Rho: 0.5, MuI: 1, MuE: 1, Policy: "IF"}
	out, err := exp.ExecuteTask(
		exp.Env{Sweep: &sw},
		exp.Task{Sim: &exp.TaskSpec{Cell: c, Rep: 0, Seed: sw.RepSeed(c, 0), Key: sw.Key(c)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFileOutcomeCacheRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	out := sampleOutcome(t)

	c, err := OpenFileOutcomeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache reports a hit")
	}
	if err := c.Put("k1", out); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open (a dispatcher restart) must serve the same outcome.
	c2, err := OpenFileOutcomeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("k1")
	if !ok {
		t.Fatal("outcome lost across reopen")
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("outcome changed across reopen:\nput %+v\ngot %+v", out, got)
	}
	if c2.Len() != 1 || c2.Corrupt() != 0 {
		t.Fatalf("len=%d corrupt=%d, want 1/0", c2.Len(), c2.Corrupt())
	}
}

func TestFileOutcomeCacheSkipsCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outcomes.jsonl")
	out := sampleOutcome(t)
	c, err := OpenFileOutcomeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("good", out); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a hard kill mid-append: a truncated trailing record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","out":{"rep`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c2, err := OpenFileOutcomeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("good"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := c2.Get("torn"); ok {
		t.Fatal("torn record served")
	}
	if c2.Corrupt() != 1 {
		t.Fatalf("Corrupt = %d, want 1", c2.Corrupt())
	}
	// The next Put must land on a fresh line, not be absorbed into the
	// torn one.
	if err := c2.Put("after", out); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	c3, err := OpenFileOutcomeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get("after"); !ok {
		t.Fatal("post-corruption append lost")
	}
}

// TestFileOutcomeCacheFailedPutKeepsNextRecord: a Put that fails on a torn
// file (here the path is briefly a directory, so the append cannot open it)
// must leave the tail marked torn — the dispatcher only logs the failure and
// carries on, and the next Put must still land on its own line.
func TestFileOutcomeCacheFailedPutKeepsNextRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "outcomes.jsonl")
	out := sampleOutcome(t)
	if err := os.WriteFile(path, []byte(`{"key":"torn","out":{"rep`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenFileOutcomeCache(path)
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
	if err := c.Put("failed", out); err == nil {
		t.Fatal("Put onto a directory succeeded")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, path); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("after", out); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenFileOutcomeCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get("after"); !ok {
		t.Fatalf("Put after a failed Put was lost (%d corrupt line(s))", c2.Corrupt())
	}
}
