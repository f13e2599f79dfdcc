package checkpoint

import "sync"

// MemCache is an in-memory analogue of Store: completed capture Sets
// keyed by the same content-addressed Key. The sim session attaches one
// to storeless sessions so repeated (and singleflight-deduplicated
// concurrent) requests for the same sweep reuse the captured launch
// states instead of re-sweeping — the on-disk store's sharing semantics
// without touching disk. The distributed service's coordinator and
// workers use it as their fleet sweep cache.
//
// Entries hold their full delta-chained snapshot payload alive; with
// MaxBytes unset that lasts for the cache's lifetime (the owner bounds
// it), with MaxBytes set the cache evicts least-recently-used entries
// on insert, mirroring the on-disk store's LRU discipline — including
// never evicting the entry being inserted, so the run that paid for a
// sweep can always reuse it at least once. All methods are safe for
// concurrent use.
type MemCache struct {
	// MaxBytes, when positive, caps the total approximate snapshot
	// payload (Set.WarmBytes + Set.MemBytes, the same quantities the
	// byte-count benchmarks track) held across entries. Set it before
	// sharing the cache across goroutines.
	MaxBytes int64

	mu    sync.Mutex
	sets  map[string]*memEntry
	bytes int64
	tick  uint64 // logical clock driving LRU recency

	hits, misses, evictions uint64
}

// memEntry is one cached Set with its accounted payload size and
// last-use stamp.
type memEntry struct {
	set   *Set
	bytes int64
	used  uint64
}

// NewMemCache returns an empty cache.
func NewMemCache() *MemCache {
	return &MemCache{sets: make(map[string]*memEntry)}
}

// Get returns the cached Set for k, or nil. A hit refreshes the entry's
// LRU recency. The returned Set is shared: callers must treat its units
// as read-only (engine.RunSet's copy-and-replay discipline).
func (c *MemCache) Get(k Key) *Set {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.sets[k.Hash()]
	if e == nil {
		c.misses++
		return nil
	}
	c.hits++
	c.tick++
	e.used = c.tick
	return e.set
}

// Put caches set under k, then — with MaxBytes set — evicts least-
// recently-used entries until the cache fits (the just-inserted entry
// is exempt, so an oversized sweep still serves its own run). Only
// complete sweeps belong here (the caller checks Summary.Complete); a
// cancelled or failed capture would poison every later request with a
// truncated population.
func (c *MemCache) Put(k Key, set *Set) {
	size := int64(set.WarmBytes()) + int64(set.MemBytes())
	c.mu.Lock()
	defer c.mu.Unlock()
	hash := k.Hash()
	if old := c.sets[hash]; old != nil {
		c.bytes -= old.bytes
	}
	c.tick++
	c.sets[hash] = &memEntry{set: set, bytes: size, used: c.tick}
	c.bytes += size
	if c.MaxBytes <= 0 {
		return
	}
	for c.bytes > c.MaxBytes && len(c.sets) > 1 {
		oldest := ""
		for h, e := range c.sets {
			if h == hash {
				continue // never evict the entry being inserted
			}
			if oldest == "" || e.used < c.sets[oldest].used {
				oldest = h
			}
		}
		if oldest == "" {
			return
		}
		c.bytes -= c.sets[oldest].bytes
		delete(c.sets, oldest)
		c.evictions++
	}
}

// Contains reports whether a set is cached for k without touching the
// hit/miss counters or the LRU recency — the sim session's singleflight
// uses it to decide whether a just-finished concurrent sweep left a
// reusable result.
func (c *MemCache) Contains(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.sets[k.Hash()]
	return ok
}

// Bytes returns the accounted snapshot payload currently held.
func (c *MemCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats returns the lifetime hit/miss/eviction counts.
func (c *MemCache) Stats() (hits, misses, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}
