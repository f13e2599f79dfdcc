// Package freelist keeps the per-request machinery of a process — a
// replay worker's launcher, a sweep's machine and warmer, a sweep's
// record ring and warm arenas, a store reader's rolling state and page
// arena — for the next request instead of building it again.
//
// A request takes an object with Get and returns it with Put once its
// worker, sweep or read has ended. Put takes an object that has already
// been reset: the owner's reset returns it to the state its constructor
// builds and drops every reference to the request that used it (its
// program, units, pages and set), so a list never keeps a finished run
// alive and no later request can observe an earlier one; a store
// reader keeps only its page arena's arrays (at most 16 MiB per reader,
// checkpoint's arenaPages), and a sweep's warm arena only its slabs (at
// most 64 MiB of arenas in all, checkpoint's arenaBudget), which the
// next read or sweep overwrites before anyone sees them. Objects whose
// shape depends on a machine geometry are listed under that geometry's
// key; a Get for another key builds.
//
// Each list is bounded at Bound objects, the most a process's pools and
// sweeps hold at once on GOMAXPROCS cores; returning one more drops the
// least recently returned. A list of objects whose storage grows with
// what they served (NewSized: a sweep's warm arenas) is bounded in bytes
// as well. A sync.Pool is not used: it empties itself
// at every garbage collection, so whether a request rebuilt its machines
// — and how much it allocated — would depend on when the collector ran,
// not on what the request did.
package freelist

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Bound is the most objects one list keeps: two per processor, enough
// for a replay pool of GOMAXPROCS workers next to a sweep or a second
// request's pool.
func Bound() int { return 2 * runtime.GOMAXPROCS(0) }

// List is a bounded free list of T, keyed by K. The zero value is not
// usable; call New. All methods are safe for concurrent use.
type List[K comparable, T any] struct {
	name  string
	build func(K) T
	// size and maxBytes bound a NewSized list in bytes; bytes is what its
	// listed objects measured when they were returned.
	size     func(T) int
	maxBytes int
	mu       sync.Mutex
	free     []entry[K, T] // least recently returned first
	bytes    int
	built    atomic.Int64
}

type entry[K comparable, T any] struct {
	key   K
	v     T
	bytes int
}

// New returns an empty list whose Get builds with build, registered
// under name for Drain and Built.
func New[K comparable, T any](name string, build func(K) T) *List[K, T] {
	return NewSized(name, build, nil, 0)
}

// NewSized is New for objects that keep storage sized by their use:
// besides at most Bound objects, the list keeps at most maxBytes of them
// in total as size measures them, dropping the least recently returned
// to make room, and never keeps an object larger than maxBytes. A nil
// size bounds the count alone.
func NewSized[K comparable, T any](name string, build func(K) T, size func(T) int, maxBytes int) *List[K, T] {
	l := &List[K, T]{name: name, build: build, size: size, maxBytes: maxBytes}
	registry.mu.Lock()
	registry.lists = append(registry.lists, l)
	registry.mu.Unlock()
	return l
}

// Get returns the most recently returned object listed under k, or a
// new one built for k when the list holds none.
func (l *List[K, T]) Get(k K) T {
	l.mu.Lock()
	for i := len(l.free) - 1; i >= 0; i-- {
		if l.free[i].key == k {
			v := l.free[i].v
			l.bytes -= l.free[i].bytes
			l.free = slices.Delete(l.free, i, i+1)
			l.mu.Unlock()
			return v
		}
	}
	l.mu.Unlock()
	l.built.Add(1)
	return l.build(k)
}

// Put lists v, already reset, under k for a later Get. A full list
// drops its least recently returned objects to make room.
func (l *List[K, T]) Put(k K, v T) {
	n := 0
	if l.size != nil {
		if n = l.size(v); n > l.maxBytes {
			return
		}
	}
	l.mu.Lock()
	drop := 0
	for len(l.free)-drop >= Bound() || (drop < len(l.free) && l.bytes+n > l.maxBytes) {
		l.bytes -= l.free[drop].bytes
		drop++
	}
	l.free = append(slices.Delete(l.free, 0, drop), entry[K, T]{k, v, n})
	l.bytes += n
	l.mu.Unlock()
}

// Len returns how many objects the list holds.
func (l *List[K, T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.free)
}

func (l *List[K, T]) drain() {
	l.mu.Lock()
	l.free, l.bytes = nil, 0
	l.mu.Unlock()
}

func (l *List[K, T]) count() (string, int64) { return l.name, l.built.Load() }

var registry struct {
	mu    sync.Mutex
	lists []interface {
		drain()
		count() (string, int64)
	}
}

// Drain empties every list, so the next Get of each builds: what a test
// does to compare a request on reused machinery with the same request
// on new.
func Drain() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, l := range registry.lists {
		l.drain()
	}
}

// Built returns, by list name, how many objects each list's Get has
// built since the process started.
func Built() map[string]int64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]int64, len(registry.lists))
	for _, l := range registry.lists {
		name, n := l.count()
		out[name] += n
	}
	return out
}
