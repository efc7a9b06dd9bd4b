package datastore

import (
	"container/list"
	"sync"
)

// DefaultCacheBytes is the byte bound of a Cache built with size 0 — the
// one bound the store's match cache and the planner's result cache share.
const DefaultCacheBytes = 32 << 20

// cacheEntryOverhead is the approximate bookkeeping cost charged per
// entry on top of its payload bytes, so many tiny values still respect
// the byte bound.
const cacheEntryOverhead = 256

// Cache memoizes values derived from store contents: the store's
// pr-filter ID sets and the planner's finished query results are its two
// instances. The policy is the same for both and lives only here.
//
// An entry is stamped with the store generation it was computed at.
// Generations are monotone, so the first Get or Put at a newer
// generation drops every older entry at once — none can ever hit again —
// and that flush is not eviction. A Put from a generation older than the
// cache has seen is discarded: the value was computed against a snapshot
// a mutation has since replaced. Within a generation, LRU eviction keeps
// resident bytes at or under the bound, and a value larger than the whole
// bound is not cached. Cached values are shared between callers and must
// be treated as immutable.
type Cache[V any] struct {
	mu      sync.Mutex
	max     int64
	cur     int64
	gen     uint64
	lru     *list.List // front = most recent; values are *cacheEntry[V]
	entries map[string]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry[V any] struct {
	key   string
	val   V
	bytes int64
}

// NewCache builds a cache bounded to maxBytes of (approximate) payload;
// maxBytes <= 0 uses DefaultCacheBytes.
func NewCache[V any](maxBytes int64) *Cache[V] {
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache[V]{max: maxBytes, lru: list.New(), entries: make(map[string]*list.Element)}
}

// CacheStats is a point-in-time counter snapshot for /v1/stats and the
// metrics bridge.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
}

// Stats snapshots the cache counters.
func (c *Cache[V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.lru.Len(), Bytes: c.cur, MaxBytes: c.max,
	}
}

// advanceLocked moves the cache to generation gen, dropping every entry
// of an older one, and reports whether gen is current (not stale).
func (c *Cache[V]) advanceLocked(gen uint64) bool {
	if gen > c.gen {
		c.gen, c.cur = gen, 0
		c.lru.Init()
		c.entries = make(map[string]*list.Element) // a fresh map, so a past burst's buckets are released too
	}
	return gen == c.gen
}

// Get returns the value cached for key at generation gen.
func (c *Cache[V]) Get(gen uint64, key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.advanceLocked(gen) {
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			c.hits++
			return el.Value.(*cacheEntry[V]).val, true
		}
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores a value of the given payload size computed at generation
// gen, evicting from the LRU tail to stay under the byte bound.
func (c *Cache[V]) Put(gen uint64, key string, val V, bytes int64) {
	bytes += cacheEntryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.advanceLocked(gen) || bytes > c.max {
		return
	}
	if el, ok := c.entries[key]; ok { // racing fill: keep the first
		c.lru.MoveToFront(el)
		return
	}
	for c.cur+bytes > c.max {
		e := c.lru.Remove(c.lru.Back()).(*cacheEntry[V])
		delete(c.entries, e.key)
		c.cur -= e.bytes
		c.evictions++
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry[V]{key, val, bytes})
	c.cur += bytes
}
