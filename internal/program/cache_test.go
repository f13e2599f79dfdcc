package program_test

import (
	"sync"
	"testing"

	"repro/internal/program"
)

// TestCacheGeneratesOnce: concurrent lookups of one new (name, length)
// — what two shards of a new run do on a fleet worker, or two sessions'
// requests — share a single generation of the process-wide cache. Every
// caller must get the same *Program; a cache without singleflight hands
// each racing caller its own copy.
func TestCacheGeneratesOnce(t *testing.T) {
	const n = 16
	progs := make([]*program.Program, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := program.Get("gzipx", 300_000)
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}()
	}
	close(start)
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("lookup %d got its own generation (%p vs %p)", i, p, progs[0])
		}
	}
	if p, err := program.Get("gzipx", 300_000); err != nil || p != progs[0] {
		t.Fatalf("later lookup missed the cache (%p vs %p, err %v)", p, progs[0], err)
	}
	if p, err := program.Get("gzipx", 200_000); err != nil || p == progs[0] {
		t.Fatalf("a different length must be a different workload (err %v)", err)
	}
	// A failed generation is reported to every lookup and not retained.
	for i := 0; i < 2; i++ {
		if _, err := program.Get("no-such-workload", 300_000); err == nil {
			t.Fatal("unknown workload generated")
		}
	}
}

// TestCacheEvictsLeastRecentlyUsed: once the finished programs retain
// more than the bound, the least recently used one is dropped, and a
// dropped program generates again with the same Digest.
func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	gzip, err := program.ByName("gzipx")
	if err != nil {
		t.Fatal(err)
	}
	one := program.RetainedBytes(program.MustGenerate(gzip, 300_000))
	// Room for two gzipx-sized programs, not three.
	c := program.NewBoundedCache(2*one + one/2)
	a, err := c.Get("gzipx", 300_000)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Digest()
	if _, err := c.Get("gzipx", 200_000); err != nil {
		t.Fatal(err)
	}
	if p, _ := c.Get("gzipx", 300_000); p != a { // a is now the most recent
		t.Fatal("a retained program was generated again")
	}
	if _, err := c.Get("gzipx", 100_000); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("cache holds %d programs, want 2", n)
	}
	if p, _ := c.Get("gzipx", 300_000); p != a {
		t.Fatal("the most recently used program was evicted")
	}
	// gzipx 200k was the least recently used: it was dropped.
	b, err := c.Get("gzipx", 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d programs after a regeneration, want 2", c.Len())
	}
	// Evict a and regenerate it: the same program, bit for bit.
	if _, err := c.Get("gzipx", 100_000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("gzipx", 100_000); err != nil || b == nil {
		t.Fatal(err)
	}
	again, err := c.Get("gzipx", 300_000)
	if err != nil {
		t.Fatal(err)
	}
	if again == a {
		t.Fatal("an evicted program was still cached")
	}
	if again.Digest() != want {
		t.Fatal("a regenerated program has a different digest")
	}
}

// TestCacheKeepsGenerating: a bound below one program's size drops every
// program once it is finished, never while it generates — an entry that
// is still generating holds the lookups that wait on it.
func TestCacheKeepsGenerating(t *testing.T) {
	c := program.NewBoundedCache(1)
	if _, err := c.Get("gzipx", 300_000); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Fatalf("cache retains %d programs over a 1-byte bound", c.Len())
	}
	if !program.EvictSparesGenerating() {
		t.Fatal("eviction dropped an entry that was still generating")
	}
}
