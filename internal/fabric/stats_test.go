package fabric

import (
	"context"
	"path/filepath"
	"testing"
	"time"
)

// TestFabricStatsOverWire drives a real dispatcher + worker and checks that
// the psq stats transport reports the same numbers the in-process accessors
// do: a live worker, the cache hits of a re-submitted sweep, and the number
// of cached outcomes.
func TestFabricStatsOverWire(t *testing.T) {
	cache := openCache(t, filepath.Join(t.TempDir(), "outcomes.jsonl"))
	d, addr := startDispatcher(t, DispatcherOptions{Cache: cache})
	startWorker(t, &Worker{Dispatcher: addr, Name: "w1"})
	waitFor(t, "worker connect", 5*time.Second, func() bool { return d.WorkerCount() == 1 })

	cl := &Client{Addr: addr}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 || st.QueueDepth != 0 || st.CacheHits != 0 {
		t.Fatalf("fresh dispatcher stats = %+v, want 1 worker, empty queue, 0 hits", st)
	}

	sw := fabricSweep()
	first := resultJSON(t, runFabric(t, addr, sw))
	second := resultJSON(t, runFabric(t, addr, sw))
	if first != second {
		t.Fatal("cached re-run not byte-identical")
	}
	tasks, err := sw.Tasks()
	if err != nil {
		t.Fatal(err)
	}
	st, err = cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != int64(len(tasks)) {
		t.Fatalf("stats report %d cache hits, want %d (one per task of the re-run)", st.CacheHits, len(tasks))
	}
	if st.CacheHits != d.CacheHits() {
		t.Fatalf("wire stats (%d hits) disagree with the in-process accessor (%d)", st.CacheHits, d.CacheHits())
	}
	if st.Jobs != 2 {
		t.Fatalf("stats report %d jobs, want 2", st.Jobs)
	}
	if st.CacheLen != len(tasks) || st.CacheLen != cache.OutcomeLen() {
		t.Fatalf("stats report cacheLen %d, want %d (the cache holds %d outcomes)", st.CacheLen, len(tasks), cache.OutcomeLen())
	}
}
