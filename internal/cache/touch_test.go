package cache_test

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
)

// warmAccess applies the exact warm-path protocol the hierarchy uses:
// try the Touch fast path, fall back to a full Access. Tests below
// assert it is indistinguishable from always calling Access.
func warmAccess(c *cache.Cache, addr uint64, write bool) {
	if !c.Touch(addr, write) {
		c.Access(addr, write)
	}
}

// TestTouchMatchesAccess drives two identically configured caches with
// the same randomized access stream — one through plain Access, one
// through the Touch-then-Access warm protocol — and requires identical
// statistics and identical snapshotted state (tags, valid/dirty bits,
// and LRU stamps) at the end. This is the bit-identity contract that
// lets the functional-warming sweep take the fast path without
// perturbing any downstream measurement.
func TestTouchMatchesAccess(t *testing.T) {
	cfg := cache.Config{Name: "T", Sets: 8, Ways: 2, BlockBits: 6}
	plain := cache.New(cfg)
	touched := cache.New(cfg)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200_000; i++ {
		// Small address space with heavy same-block reuse so the fast
		// path, conflict misses, and evictions all occur frequently.
		var addr uint64
		if rng.Intn(4) != 0 {
			addr = uint64(rng.Intn(4)) * 8 // hot blocks
		} else {
			addr = uint64(rng.Intn(1 << 14))
		}
		write := rng.Intn(3) == 0
		plain.Access(addr, write)
		warmAccess(touched, addr, write)
	}
	if plain.Stats != touched.Stats {
		t.Fatalf("stats diverged:\nplain   %+v\ntouched %+v", plain.Stats, touched.Stats)
	}
	ps, ts := plain.Snapshot(nil), touched.Snapshot(nil)
	if ps.Stamp != ts.Stamp {
		t.Fatalf("stamps diverged: %d vs %d", ps.Stamp, ts.Stamp)
	}
	for i := range ps.Tags {
		if ps.Valid[i] != ts.Valid[i] || ps.Tags[i] != ts.Tags[i] ||
			ps.Dirty[i] != ts.Dirty[i] || ps.LastUsed[i] != ts.LastUsed[i] {
			t.Fatalf("block %d diverged: plain {v:%v t:%d d:%v u:%d} touched {v:%v t:%d d:%v u:%d}",
				i, ps.Valid[i], ps.Tags[i], ps.Dirty[i], ps.LastUsed[i],
				ts.Valid[i], ts.Tags[i], ts.Dirty[i], ts.LastUsed[i])
		}
	}
}

// TestTouchAfterRestoreAndFlush verifies the lastIdx hint needs no
// invalidation: Touch stays correct across Flush and Restore because it
// revalidates against the live arrays.
func TestTouchAfterRestoreAndFlush(t *testing.T) {
	cfg := cache.Config{Name: "T", Sets: 4, Ways: 2, BlockBits: 6}
	c := cache.New(cfg)
	c.Access(0x40, false) // prime the hint
	if !c.Touch(0x40, false) {
		t.Fatal("warm hit expected on primed block")
	}
	c.Flush()
	if c.Touch(0x40, false) {
		t.Fatal("Touch hit after Flush; hint must revalidate")
	}
	c.Access(0x80, false)
	other := cache.New(cfg)
	other.Access(0x1000, false)
	if err := c.Restore(other.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	if c.Touch(0x80, false) {
		t.Fatal("Touch hit stale block after Restore")
	}
	if !c.Touch(0x1000, false) {
		// The hinted way may not match the restored layout; a miss here
		// is allowed — but the fallback Access must hit.
		if !c.Access(0x1000, false).Hit {
			t.Fatal("restored block not present")
		}
	}
}

// TestTouchZeroAllocs pins the warm-hit fast path to zero heap
// allocations per access (satellite allocation-regression guard).
func TestTouchZeroAllocs(t *testing.T) {
	c := cache.New(cache.Config{Name: "T", Sets: 8, Ways: 2, BlockBits: 6})
	c.Access(0x40, false)
	allocs := testing.AllocsPerRun(1000, func() {
		if !c.Touch(0x40, false) {
			t.Fatal("warm hit expected")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache.Touch warm hit allocates %.1f objects/op; want 0", allocs)
	}
}

// TestTLBTouchMatchesAccess drives a TLB through Touch and a twin
// through Access and compares statistics.
func TestTLBTouchMatchesAccess(t *testing.T) {
	a := cache.NewTLB("T", 16, 4, 12)
	b := cache.NewTLB("T", 16, 4, 12)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100_000; i++ {
		addr := uint64(rng.Intn(1 << 18))
		a.Access(addr)
		b.Touch(addr)
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("TLB stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// BenchmarkCacheTouchWarmHit measures the fast path the functional-
// warming sweep rides: repeated hits on the most recently used block.
func BenchmarkCacheTouchWarmHit(b *testing.B) {
	c := cache.New(cache.Config{Name: "T", Sets: 256, Ways: 2, BlockBits: 6})
	c.Access(0x40, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !c.Touch(0x40, false) {
			b.Fatal("warm hit expected")
		}
	}
}

// BenchmarkCacheAccessHit is the pre-fast-path baseline: a full
// associative-scan Access that also hits.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := cache.New(cache.Config{Name: "T", Sets: 256, Ways: 2, BlockBits: 6})
	c.Access(0x40, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(0x40, false)
	}
}

// BenchmarkTLBTouch measures the TLB warm-hit fast path.
func BenchmarkTLBTouch(b *testing.B) {
	tlb := cache.NewTLB("T", 64, 4, 12)
	tlb.Access(0x1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tlb.Touch(0x1000)
	}
}
