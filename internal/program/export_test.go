package program

// SetDigestHook installs f as the hook Digest calls each time it hashes
// a program and returns a function that restores the previous hook.
func SetDigestHook(f func()) (restore func()) {
	old := digestHook
	digestHook = f
	return func() { digestHook = old }
}

// NewBoundedCache returns a cache that retains at most maxBytes of
// finished programs in place of cacheMaxBytes.
func NewBoundedCache(maxBytes int64) *cache { return &cache{maxBytes: maxBytes} }

// Len returns how many entries the cache holds, generating or finished.
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// RetainedBytes exposes retainedBytes.
func RetainedBytes(p *Program) int64 { return retainedBytes(p) }

// EvictSparesGenerating runs evict over a cache holding one generating
// entry and one finished entry over the bound, and reports whether the
// generating entry survived while the finished one went.
func EvictSparesGenerating() bool {
	c := &cache{maxBytes: 1, entries: map[cacheKey]*cacheEntry{
		{"generating", 1}: {done: make(chan struct{}), used: 1},
		{"finished", 1}:   {done: make(chan struct{}), used: 2, bytes: 10},
	}, bytes: 10}
	c.evict()
	_, kept := c.entries[cacheKey{"generating", 1}]
	_, stale := c.entries[cacheKey{"finished", 1}]
	return kept && !stale && c.bytes == 0
}

// ResetShared empties the process-wide cache, so the next Get of every
// program generates it afresh.
func ResetShared() {
	shared.mu.Lock()
	defer shared.mu.Unlock()
	shared.entries, shared.bytes = nil, 0
}
