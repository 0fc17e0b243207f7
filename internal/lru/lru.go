// Package lru provides the size-bounded, least-recently-used cache that
// backs every in-memory result store of the serving stack: the experiment
// layer's cell cache (exp.MemCache) and the HTTP result service's response
// and raw-body memo caches (internal/serve). They used to grow without
// limit under sustained distinct-key load; this package gives them one
// shared eviction and accounting discipline instead of ad-hoc ones.
//
// A Cache is bounded two ways at once — by entry count and by accounted
// bytes (callers pass each value's size at Put time) — and evicts from the
// cold end until both caps hold. Hits, misses, evictions and rejected
// oversized inserts are counted, so "is the cache the right size" is an
// observable question (surfaced by resultd's /v1/stats), not a guess. All
// methods are safe for concurrent use.
package lru

import "sync"

// Stats is a point-in-time snapshot of a Cache's counters and occupancy.
type Stats struct {
	// Hits and Misses count Get outcomes since creation.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries displaced to satisfy the caps; Rejected
	// counts values never admitted because a single value exceeded the byte
	// cap on its own (admitting one would evict the whole cache for an
	// entry that cannot pay for itself).
	Evictions int64 `json:"evictions"`
	Rejected  int64 `json:"rejected"`
	// Entries and Bytes are current occupancy; MaxEntries and MaxBytes the
	// configured caps (0 = unlimited on that axis).
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
	MaxEntries int   `json:"maxEntries,omitempty"`
	MaxBytes   int64 `json:"maxBytes,omitempty"`
}

// entry is one cache slot on the intrusive recency list (head = most
// recent).
type entry[V any] struct {
	key        string
	val        V
	size       int64
	prev, next *entry[V]
}

// Cache is a string-keyed LRU bounded by entry count and accounted bytes.
// The zero value is not usable; construct with New.
type Cache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	m          map[string]*entry[V]
	head, tail *entry[V]
	bytes      int64

	hits, misses, evictions, rejected int64
}

// New returns an empty cache capped at maxEntries entries and maxBytes
// accounted bytes; a cap <= 0 leaves that axis unbounded.
func New[V any](maxEntries int, maxBytes int64) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		m:          make(map[string]*entry[V]),
	}
}

// Get returns the value for key and refreshes its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key)
}

// GetBytes is Get with a []byte key, avoiding the string conversion
// allocation on hit paths that hold the key as raw request bytes (the map
// lookup via string(key) is allocation-free by compiler convention).
func (c *Cache[V]) GetBytes(key []byte) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[string(key)]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(e)
	return e.val, true
}

func (c *Cache[V]) getLocked(key string) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.moveToFront(e)
	return e.val, true
}

// Put inserts or replaces key with the given value and accounted size,
// evicting cold entries until both caps hold. A value whose size alone
// exceeds the byte cap is rejected (counted, not stored): admitting it would
// flush the entire cache for an entry that still couldn't fit.
func (c *Cache[V]) Put(key string, val V, size int64) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && size > c.maxBytes {
		c.rejected++
		return
	}
	if e, ok := c.m[key]; ok {
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.moveToFront(e)
		c.evictOver()
		return
	}
	e := &entry[V]{key: key, val: val, size: size}
	c.m[key] = e
	c.bytes += size
	c.pushFront(e)
	c.evictOver()
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Bytes returns the current accounted size.
func (c *Cache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats snapshots the counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, Rejected: c.rejected,
		Entries: len(c.m), Bytes: c.bytes,
		MaxEntries: c.maxEntries, MaxBytes: c.maxBytes,
	}
}

// evictOver drops cold-end entries until both caps hold.
func (c *Cache[V]) evictOver() {
	for c.tail != nil &&
		((c.maxEntries > 0 && len(c.m) > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		e := c.tail
		c.unlink(e)
		delete(c.m, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[V]) moveToFront(e *entry[V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
