package program

import (
	"sync"
	"unsafe"

	"repro/internal/isa"
)

// cacheMaxBytes bounds what the cache retains: once its finished programs
// hold more, the least recently used are dropped. A suite program holds
// at most about 9 MB (mcfx: its segments and, once a CPU has started, its
// image of the same size), so the bound keeps a few dozen.
const cacheMaxBytes = 256 << 20

// Get returns the suite workload name generated at the target dynamic
// length from the process's one program cache, which every session,
// fleet coordinator and worker, and experiment context shares (programs
// are immutable). Concurrent lookups of one new key generate it once;
// the rest wait for the result. A failed generation is not retained,
// and once the finished programs retain more than cacheMaxBytes the
// least recently used of them are dropped (an entry still generating
// never is); a dropped program is generated again on its next lookup,
// with the same Digest.
func Get(name string, length uint64) (*Program, error) { return shared.Get(name, length) }

var shared cache

// cache memoizes generated suite workloads by (name, length); see Get.
// The zero value is ready to use; its methods are safe for concurrent use.
type cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	bytes   int64  // retained by the finished entries
	clock   uint64 // lookups so far: the recency stamp
	// maxBytes overrides cacheMaxBytes when positive (tests).
	maxBytes int64
}

type cacheKey struct {
	name   string
	length uint64
}

// cacheEntry is one generation, finished once done is closed.
type cacheEntry struct {
	done  chan struct{}
	prog  *Program
	err   error
	bytes int64  // retained once finished; 0 while generating
	used  uint64 // the cache's clock at the last lookup
}

// Get returns the suite workload name generated at the target dynamic
// length, generating it on first use.
func (c *cache) Get(name string, length uint64) (*Program, error) {
	key := cacheKey{name, length}
	c.mu.Lock()
	c.clock++
	e, ok := c.entries[key]
	if ok {
		e.used = c.clock
		c.mu.Unlock()
		<-e.done
		return e.prog, e.err
	}
	e = &cacheEntry{done: make(chan struct{}), used: c.clock}
	if c.entries == nil {
		c.entries = make(map[cacheKey]*cacheEntry)
	}
	c.entries[key] = e
	c.mu.Unlock()

	spec, err := ByName(name)
	if err == nil {
		e.prog, err = Generate(spec, length)
	}
	e.err = err
	c.mu.Lock()
	if err != nil {
		delete(c.entries, key)
	} else {
		e.bytes = retainedBytes(e.prog)
		c.bytes += e.bytes
		c.evict()
	}
	c.mu.Unlock()
	close(e.done)
	return e.prog, e.err
}

// evict drops least recently used finished entries until the rest
// retain no more than the bound. c.mu is held.
func (c *cache) evict() {
	limit := c.maxBytes
	if limit <= 0 {
		limit = cacheMaxBytes
	}
	for c.bytes > limit {
		var oldest cacheKey
		var victim *cacheEntry
		for k, e := range c.entries {
			if e.bytes > 0 && (victim == nil || e.used < victim.used) {
				oldest, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, oldest)
		c.bytes -= victim.bytes
	}
}

// retainedBytes is what a cached program keeps reachable at most: its
// code twice over (as written and predecoded) and its data twice over
// (the segments and the initial image built from them).
func retainedBytes(p *Program) int64 {
	code := int64(len(p.Code)) * int64(unsafe.Sizeof(isa.Inst{})+unsafe.Sizeof(isa.DecInst{}))
	return code + 2*int64(p.DataBytes())
}
