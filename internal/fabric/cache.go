package fabric

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/exp"
	"repro/internal/lru"
)

// OutcomeCache stores finished task outcomes keyed by task identity
// (exp.TaskKey: for sweep replications, the cell's config hash plus the
// replication index). The dispatcher consults it before assigning a task
// and fills it as results arrive, so a re-submitted sweep — from any
// client — is answered without recomputation. Because outcomes round-trip
// JSON exactly (the invariant the fabric's byte-identity gates pin), a
// cache hit is bit-identical to a fresh execution.
//
// This is the dispatcher-side complement of exp.Cache: exp.Cache memoizes
// aggregated cells in the *submitting* process, OutcomeCache memoizes raw
// task outcomes in the *dispatcher*, where they are shared by every client
// of the fabric.
type OutcomeCache interface {
	Get(key string) (exp.Outcome, bool)
	Put(key string, out exp.Outcome) error
}

// Default caps of NewMemOutcomeCache. Raw task outcomes are smaller than
// aggregated cells (one replication each, a few hundred bytes to a few KB of
// JSON), so the entry cap is generous; the byte cap is the real bound under
// sustained distinct-spec load.
const (
	defaultOutcomeCacheEntries = 1 << 17
	defaultOutcomeCacheBytes   = 256 << 20
)

// MemOutcomeCache is an in-memory OutcomeCache bounded by entry count and
// accounted bytes with LRU eviction (internal/lru); entries are accounted
// at their JSON size. Safe for concurrent use.
type MemOutcomeCache struct {
	c *lru.Cache[exp.Outcome]
}

// NewMemOutcomeCache returns an in-memory outcome cache with the default
// caps.
func NewMemOutcomeCache() *MemOutcomeCache {
	return NewMemOutcomeCacheSized(defaultOutcomeCacheEntries, defaultOutcomeCacheBytes)
}

// NewMemOutcomeCacheSized returns an in-memory outcome cache capped at
// maxEntries entries and maxBytes accounted bytes; a cap <= 0 leaves that
// axis unbounded.
func NewMemOutcomeCacheSized(maxEntries int, maxBytes int64) *MemOutcomeCache {
	return &MemOutcomeCache{c: lru.New[exp.Outcome](maxEntries, maxBytes)}
}

// Get implements OutcomeCache.
func (c *MemOutcomeCache) Get(key string) (exp.Outcome, bool) { return c.c.Get(key) }

// Put implements OutcomeCache.
func (c *MemOutcomeCache) Put(key string, out exp.Outcome) error {
	size := int64(len(key))
	if b, err := json.Marshal(out); err == nil {
		size += int64(len(b))
	}
	c.c.Put(key, out, size)
	return nil
}

// Len returns the number of cached outcomes.
func (c *MemOutcomeCache) Len() int { return c.c.Len() }

// Stats snapshots the hit/miss/eviction counters and occupancy; the
// dispatcher surfaces them through psq stats.
func (c *MemOutcomeCache) Stats() lru.Stats { return c.c.Stats() }

// FileOutcomeCache persists outcomes as JSON lines, one per finished task,
// appended and flushed as results arrive — the same crash-tolerant layout
// as exp.FileCache: a corrupt line (truncated by a hard kill mid-append) is
// skipped on load, because cached entries are an optimization, never the
// source of truth. One dispatcher owns the file; do not share it.
type FileOutcomeCache struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	mem     map[string]exp.Outcome
	corrupt int
	// tornTail is set when the file may not end in a newline — it existed
	// with a record torn by a hard kill, or the last append failed — and
	// cleared by a successful append; while set, appends start with a
	// newline so the new record lands on its own line instead of being
	// absorbed into the torn one.
	tornTail bool
}

type outcomeRecord struct {
	Key string      `json:"key"`
	Out exp.Outcome `json:"out"`
}

// OpenFileOutcomeCache loads (or creates on first Put) the cache at path.
func OpenFileOutcomeCache(path string) (*FileOutcomeCache, error) {
	c := &FileOutcomeCache{path: path, mem: make(map[string]exp.Outcome)}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return c, nil
		}
		return nil, fmt.Errorf("fabric: opening outcome cache: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec outcomeRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			c.corrupt++
			continue
		}
		c.mem[rec.Key] = rec.Out
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fabric: reading outcome cache %s: %w", path, err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		tail := make([]byte, 1)
		if _, err := f.ReadAt(tail, st.Size()-1); err == nil && tail[0] != '\n' {
			c.tornTail = true
		}
	}
	return c, nil
}

// Get implements OutcomeCache.
func (c *FileOutcomeCache) Get(key string) (exp.Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.mem[key]
	return out, ok
}

// Put implements OutcomeCache: the record is appended through a persistent
// O_APPEND handle (one write(2) per record) before the in-memory index is
// updated.
func (c *FileOutcomeCache) Put(key string, out exp.Outcome) error {
	line, err := json.Marshal(outcomeRecord{Key: key, Out: out})
	if err != nil {
		return fmt.Errorf("fabric: encoding outcome record: %w", err)
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tornTail {
		line = append([]byte{'\n'}, line...)
	}
	if c.f == nil {
		f, err := os.OpenFile(c.path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("fabric: opening outcome cache for append: %w", err)
		}
		c.f = f
	}
	if _, err := c.f.Write(line); err != nil {
		c.tornTail = true
		return fmt.Errorf("fabric: appending outcome record: %w", err)
	}
	c.tornTail = false
	c.mem[key] = out
	return nil
}

// Close releases the append handle; Get keeps serving from memory and the
// next Put reopens the file.
func (c *FileOutcomeCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	if err != nil {
		return fmt.Errorf("fabric: closing outcome cache: %w", err)
	}
	return nil
}

// Len returns the number of cached outcomes.
func (c *FileOutcomeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Corrupt reports how many undecodable lines the load skipped.
func (c *FileOutcomeCache) Corrupt() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.corrupt
}
