package cache

import "repro/internal/cacheline"

// TLB is a set-associative translation lookaside buffer. Since the
// simulated machine has no virtual memory proper, the TLB simply caches
// page-granularity address translations: a miss models the page-walk
// latency the paper's Table 3 configurations charge (200 cycles).
type TLB struct {
	_        cacheline.Pad
	inner    *Cache
	pageBits uint
	_        cacheline.Pad
}

// NewTLB builds a TLB with the given number of entries, associativity,
// and page size (log2 bytes).
func NewTLB(name string, entries, ways int, pageBits uint) *TLB {
	sets := entries / ways
	if sets == 0 {
		sets = 1
	}
	return &TLB{
		inner: New(Config{
			Name:      name,
			Sets:      sets,
			Ways:      ways,
			BlockBits: 1, // tags are page numbers; block size is irrelevant
		}),
		pageBits: pageBits,
	}
}

// Access looks up the page containing addr, filling on miss, and reports
// whether it hit.
//
//simlint:hotpath
func (t *TLB) Access(addr uint64) bool {
	return t.inner.Access(addr>>t.pageBits<<1, false).Hit
}

// Touch performs one warm (untimed) lookup of the page containing addr.
// It is state-identical to Access but takes the inlinable last-entry
// fast path when the translation matches the most recently used one —
// the overwhelmingly common case in the functional-warming sweep, where
// consecutive accesses stay on the same page.
//
//simlint:hotpath
func (t *TLB) Touch(addr uint64) {
	key := addr >> t.pageBits << 1
	if !t.inner.Touch(key, false) {
		t.inner.Access(key, false)
	}
}

// Probe reports whether the page is present without updating LRU.
func (t *TLB) Probe(addr uint64) bool {
	return t.inner.Probe(addr >> t.pageBits << 1)
}

// Flush invalidates all translations, keeping the statistics (see
// Cache.Flush).
//
//simlint:hotpath
func (t *TLB) Flush() { t.inner.Flush() }

// Reset returns the TLB to its as-constructed state (see Cache.Reset).
//
//simlint:hotpath
func (t *TLB) Reset() { t.inner.Reset() }

// Stats returns the access statistics.
func (t *TLB) Stats() Stats { return t.inner.Stats }
