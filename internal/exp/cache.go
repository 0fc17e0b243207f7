package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/applog"
	"repro/internal/lru"
)

// Cache stores completed cell results keyed by Sweep.Key. The dispatcher
// only ever writes fully-completed cells (all replications aggregated), so a
// cache left behind by a canceled or crashed sweep is still consistent:
// re-running the same sweep recomputes exactly the missing cells and reuses
// the rest.
type Cache interface {
	Get(key string) (CellResult, bool)
	Put(key string, cr CellResult) error
}

// OutcomeCache stores individual task outcomes keyed by TaskKey — finer
// grained than Cache (one entry per task, not per aggregated cell), which is
// what lets the point drivers (figures, validation, ablation, dominance)
// memoize their work: those tasks never belong to a Sweep cell, so Cache
// cannot hold them. FileCache implements both interfaces over one file.
type OutcomeCache interface {
	GetOutcome(key string) (Outcome, bool)
	PutOutcome(key string, out Outcome) error
}

// Default caps of NewMemCache. A CellResult with a handful of replications
// runs a few KB of JSON, so 32Ki entries under a 256 MiB byte cap holds any
// realistic working set while bounding a sustained distinct-spec load.
const (
	defaultMemCacheEntries = 1 << 15
	defaultMemCacheBytes   = 256 << 20
)

// MemCache is an in-memory Cache bounded by entry count and accounted bytes
// with LRU eviction (internal/lru); entries are accounted at their JSON
// size. Safe for concurrent use.
type MemCache struct {
	c *lru.Cache[CellResult]
}

// NewMemCache returns an in-memory cache with the default caps.
func NewMemCache() *MemCache {
	return newMemCacheSized(defaultMemCacheEntries, defaultMemCacheBytes)
}

// newMemCacheSized returns an in-memory cache capped at maxEntries entries
// and maxBytes accounted bytes; a cap <= 0 leaves that axis unbounded.
func newMemCacheSized(maxEntries int, maxBytes int64) *MemCache {
	return &MemCache{c: lru.New[CellResult](maxEntries, maxBytes)}
}

// Get implements Cache.
func (c *MemCache) Get(key string) (CellResult, bool) { return c.c.Get(key) }

// Put implements Cache.
func (c *MemCache) Put(key string, cr CellResult) error {
	c.c.Put(key, cr, jsonSize(key, cr))
	return nil
}

// Len returns the number of cached cells.
func (c *MemCache) Len() int { return c.c.Len() }

// Stats snapshots the hit/miss/eviction counters and occupancy.
func (c *MemCache) Stats() lru.Stats { return c.c.Stats() }

// jsonSize accounts a cached value's footprint as its JSON size plus its
// key — the same bytes it would occupy in a FileCache, a stable proxy for
// the in-memory footprint that needs no unsafe introspection.
func jsonSize(key string, v any) int64 {
	b, err := json.Marshal(v)
	if err != nil {
		return int64(len(key))
	}
	return int64(len(key) + len(b))
}

// FileCache persists results as JSON lines in an internal/applog file —
// one completed cell (or task outcome, see PutOutcome) per line, appended
// and fsynced as each finishes, so an interrupted sweep loses at most the
// in-flight entries. A corrupt line (e.g. truncated by a hard kill
// mid-append) is skipped on load and counted (Corrupt), and the next append
// starts on a fresh line: cached entries are only an optimization, never
// the source of truth.
//
// Concurrency contract: within one process the cache is safe for any
// number of goroutines. Across processes, every record is a single
// appending write(2), so concurrent appenders on a local (POSIX)
// filesystem never interleave records — but each process only sees the
// entries that existed when it opened the cache, and duplicate keys
// resolve last-line-wins on the next load. The supported arrangement is
// one writer per file: only the submitting process (or the fabric
// dispatcher, for its -cache file) touches it, and workers never see its
// path. Do not share a cache file over NFS.
type FileCache struct {
	log    *applog.Log
	mu     sync.Mutex
	mem    map[string]CellResult
	outMem map[string]Outcome
}

// fileCacheRecord is one line of the file: a cell record sets Result, a
// task-outcome record sets Out. Cell records marshal byte-identically to
// the pre-outcome format, so existing cache files load unchanged; outcome
// records have the {"key","out"} shape the fabric dispatcher's outcome
// file has always used.
type fileCacheRecord struct {
	Key    string      `json:"key"`
	Result *CellResult `json:"result,omitempty"`
	Out    *Outcome    `json:"out,omitempty"`
}

// errNoKind rejects a record that carries neither a cell nor an outcome: it
// is as useless as an undecodable line, and counted with them.
var errNoKind = errors.New("exp: cache record carries neither a result nor an outcome")

// OpenFileCache loads (or creates on first Put) the cache at path.
func OpenFileCache(path string) (*FileCache, error) {
	fc := &FileCache{mem: map[string]CellResult{}, outMem: map[string]Outcome{}}
	log, err := applog.Open(path, func(line []byte) error {
		var rec fileCacheRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		switch {
		case rec.Result != nil:
			fc.mem[rec.Key] = *rec.Result
		case rec.Out != nil:
			fc.outMem[rec.Key] = *rec.Out
		default:
			return errNoKind
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fc.log = log
	return fc, nil
}

// Get implements Cache.
func (c *FileCache) Get(key string) (CellResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cr, ok := c.mem[key]
	return cr, ok
}

// Put implements Cache: the record is appended to the file and fsynced
// before the in-memory index is updated.
func (c *FileCache) Put(key string, cr CellResult) error {
	if err := c.appendRecord(fileCacheRecord{Key: key, Result: &cr}); err != nil {
		return err
	}
	c.mu.Lock()
	c.mem[key] = cr
	c.mu.Unlock()
	return nil
}

// GetOutcome implements OutcomeCache.
func (c *FileCache) GetOutcome(key string) (Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.outMem[key]
	return out, ok
}

// PutOutcome implements OutcomeCache; outcome records share the cell
// records' file and durability discipline.
func (c *FileCache) PutOutcome(key string, out Outcome) error {
	if err := c.appendRecord(fileCacheRecord{Key: key, Out: &out}); err != nil {
		return err
	}
	c.mu.Lock()
	c.outMem[key] = out
	c.mu.Unlock()
	return nil
}

// appendRecord appends one record and fsyncs it.
func (c *FileCache) appendRecord(rec fileCacheRecord) error {
	if err := c.log.Append(rec); err != nil {
		return err
	}
	return c.log.Sync()
}

// Close releases the append handle; Get keeps serving from memory and the
// next Put reopens the file. A zero-Put cache never created or opened the
// file, and Close on it is a no-op.
func (c *FileCache) Close() error { return c.log.Close() }

// Len returns the number of cached cells (outcome records not included).
func (c *FileCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// OutcomeLen returns the number of cached task outcomes.
func (c *FileCache) OutcomeLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.outMem)
}

// Corrupt reports how many undecodable lines the load skipped — nonzero
// after a hard kill mid-append or a concurrent-writer interleaving, and
// worth surfacing to the user (see CorruptWarning).
func (c *FileCache) Corrupt() int { return c.log.Corrupt() }

// CorruptWarning renders the standard corrupt-cache warning, or "" when the
// load skipped nothing. Every cache-flagged cmd (simulate, figures,
// dominance) reports through it, so a mangled cache file reads identically
// everywhere.
func CorruptWarning(path string, skipped int) string {
	if skipped <= 0 {
		return ""
	}
	return fmt.Sprintf("warning: cache %s: skipped %d corrupt line(s); the affected entries will be recomputed", path, skipped)
}
