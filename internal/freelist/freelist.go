// Package freelist keeps the per-request machinery of a process — a
// replay worker's launcher, a sweep's machine and warmer, a sweep's
// record ring, a store reader's rolling state and page arena — for the
// next request instead of building it again.
//
// A request takes an object with Get and returns it with Put once its
// worker, sweep or read has ended. Put takes an object that has already
// been reset: the owner's reset returns it to the state its constructor
// builds and drops every reference to the request that used it (its
// program, units, pages and set), so a list never keeps a finished run
// alive and no later request can observe an earlier one; a store
// reader keeps only its page arena's arrays (at most 16 MiB per reader,
// checkpoint's arenaPages), which the next read overwrites before
// anyone sees them. Objects whose
// shape depends on a machine geometry are listed under that geometry's
// key; a Get for another key builds.
//
// Each list is bounded at Bound objects, the most a process's pools and
// sweeps hold at once on GOMAXPROCS cores; returning one more drops the
// least recently returned. A sync.Pool is not used: it empties itself
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
	mu    sync.Mutex
	free  []entry[K, T] // least recently returned first
	built atomic.Int64
}

type entry[K comparable, T any] struct {
	key K
	v   T
}

// New returns an empty list whose Get builds with build, registered
// under name for Drain and Built.
func New[K comparable, T any](name string, build func(K) T) *List[K, T] {
	l := &List[K, T]{name: name, build: build}
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
// drops its least recently returned object to make room.
func (l *List[K, T]) Put(k K, v T) {
	l.mu.Lock()
	if n := len(l.free) - Bound() + 1; n > 0 {
		l.free = slices.Delete(l.free, 0, n)
	}
	l.free = append(l.free, entry[K, T]{k, v})
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
	l.free = nil
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
