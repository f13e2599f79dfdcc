package program

import "sync"

// Cache memoizes generated suite workloads by (name, length) for a
// long-lived owner (a sim session, a fleet coordinator or worker).
// Concurrent lookups of one new key generate it once; the rest wait for
// the result. A failed generation is not retained. The zero value is
// ready to use; all methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
}

type cacheKey struct {
	name   string
	length uint64
}

// cacheEntry is one generation, finished once done is closed.
type cacheEntry struct {
	done chan struct{}
	prog *Program
	err  error
}

// Get returns the suite workload name generated at the target dynamic
// length, generating it on first use.
func (c *Cache) Get(name string, length uint64) (*Program, error) {
	key := cacheKey{name, length}
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.mu.Unlock()
		<-e.done
		return e.prog, e.err
	}
	e = &cacheEntry{done: make(chan struct{})}
	if c.entries == nil {
		c.entries = make(map[cacheKey]*cacheEntry)
	}
	c.entries[key] = e
	c.mu.Unlock()

	spec, err := ByName(name)
	if err == nil {
		e.prog, err = Generate(spec, length)
	}
	if e.err = err; err != nil {
		c.mu.Lock()
		delete(c.entries, key)
		c.mu.Unlock()
	}
	close(e.done)
	return e.prog, e.err
}
