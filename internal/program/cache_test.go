package program_test

import (
	"sync"
	"testing"

	"repro/internal/program"
)

// TestCacheGeneratesOnce: concurrent lookups of one new (name, length)
// — what two shards of a new run do on a fleet worker, or two requests
// on a session — share a single generation. Every caller must get the
// same *Program; a cache without singleflight hands each racing caller
// its own copy.
func TestCacheGeneratesOnce(t *testing.T) {
	var c program.Cache
	const n = 16
	progs := make([]*program.Program, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := c.Get("gzipx", 300_000)
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
	if p, err := c.Get("gzipx", 300_000); err != nil || p != progs[0] {
		t.Fatalf("later lookup missed the cache (%p vs %p, err %v)", p, progs[0], err)
	}
	if p, err := c.Get("gzipx", 200_000); err != nil || p == progs[0] {
		t.Fatalf("a different length must be a different workload (err %v)", err)
	}
	// A failed generation is reported to every lookup and not retained.
	for i := 0; i < 2; i++ {
		if _, err := c.Get("no-such-workload", 300_000); err == nil {
			t.Fatal("unknown workload generated")
		}
	}
}
