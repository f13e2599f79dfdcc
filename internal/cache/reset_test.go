package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// dirtyCache drives c with random warm and timed traffic, snapshots
// included, so every field a reset must return to its constructed value
// (tags, LRU stamps and clock, hint, statistics, chain position, dirty
// bitmap) has moved.
func dirtyCache(c *cache.Cache, rng *rand.Rand) {
	for i := 0; i < 20_000; i++ {
		addr := uint64(rng.Intn(1 << 16))
		write := rng.Intn(3) == 0
		if rng.Intn(2) == 0 && c.Touch(addr, write) {
			continue
		}
		c.Access(addr, write)
		if i%5000 == 0 {
			c.Snapshot(nil)
		}
	}
}

// sameCacheTraffic drives a and b with the same n random accesses and
// requires every outcome to match.
func sameCacheTraffic(t *testing.T, a, b *cache.Cache, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 16))
		write := rng.Intn(3) == 0
		if rng.Intn(2) == 0 {
			if ta, tb := a.Touch(addr, write), b.Touch(addr, write); ta != tb {
				t.Fatalf("access %d: Touch %v vs %v", i, ta, tb)
			}
		}
		if ra, rb := a.Access(addr, write), b.Access(addr, write); ra != rb {
			t.Fatalf("access %d: %+v vs %+v", i, ra, rb)
		}
	}
}

// TestCacheResetEqualsNew: a reset cache is a new cache — every field,
// the Snapshot bytes, the statistics, and the outcome of the next 10k
// accesses.
func TestCacheResetEqualsNew(t *testing.T) {
	for _, cfg := range []cache.Config{
		{Name: "D", Sets: 64, Ways: 2, BlockBits: 6},
		{Name: "W", Sets: 1, Ways: 5, BlockBits: 1},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			c := cache.New(cfg)
			dirtyCache(c, rand.New(rand.NewSource(3)))
			c.Reset()
			fresh := cache.New(cfg)
			if !reflect.DeepEqual(c, fresh) {
				t.Fatal("reset cache differs from a new one")
			}
			if c.Stats != fresh.Stats || c.Seq() != fresh.Seq() {
				t.Fatalf("stats %+v seq %d, new cache %+v seq %d", c.Stats, c.Seq(), fresh.Stats, fresh.Seq())
			}
			if !reflect.DeepEqual(c.Snapshot(nil), fresh.Snapshot(nil)) {
				t.Fatal("reset cache snapshots differently from a new one")
			}
			sameCacheTraffic(t, c, fresh, rand.New(rand.NewSource(4)), 10_000)
			if !reflect.DeepEqual(c, fresh) {
				t.Fatal("reset cache diverged from a new one under identical traffic")
			}
		})
	}
}

// TestCacheFlushIsResetKeepingStats pins how Flush differs from Reset:
// contents, LRU clock and hint are exactly a new cache's (so the
// Snapshot bytes are too), the statistics and the chain position stay.
func TestCacheFlushIsResetKeepingStats(t *testing.T) {
	cfg := cache.Config{Name: "D", Sets: 64, Ways: 2, BlockBits: 6}
	c := cache.New(cfg)
	dirtyCache(c, rand.New(rand.NewSource(5)))
	stats, seq := c.Stats, c.Seq()
	c.Flush()
	if c.Stats != stats || c.Seq() != seq {
		t.Fatalf("Flush moved stats or chain: %+v/%d, want %+v/%d", c.Stats, c.Seq(), stats, seq)
	}
	fresh := cache.New(cfg)
	if !reflect.DeepEqual(c.Snapshot(nil), fresh.Snapshot(nil)) {
		t.Fatal("flushed cache snapshots differently from a new one (stale tags or stamps)")
	}
	sameCacheTraffic(t, c, fresh, rand.New(rand.NewSource(6)), 10_000)
	if !reflect.DeepEqual(c.Snapshot(nil), fresh.Snapshot(nil)) {
		t.Fatal("flushed cache diverged from a new one under identical traffic")
	}
}

func newHierarchy() *cache.Hierarchy {
	return &cache.Hierarchy{
		IL1:  cache.New(cache.Config{Name: "IL1", Sets: 32, Ways: 2, BlockBits: 6}),
		DL1:  cache.New(cache.Config{Name: "DL1", Sets: 32, Ways: 2, BlockBits: 6}),
		L2:   cache.New(cache.Config{Name: "L2", Sets: 128, Ways: 4, BlockBits: 6}),
		ITLB: cache.NewTLB("ITLB", 16, 4, 12),
		DTLB: cache.NewTLB("DTLB", 32, 4, 12),
		Lat:  cache.Latencies{L1: 1, L2: 12, Mem: 100, TLB: 200},
	}
}

// sameHierarchyTraffic drives a and b with the same n random timed and
// warm accesses and requires every latency and level to match.
func sameHierarchyTraffic(t *testing.T, a, b *cache.Hierarchy, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		addr := uint64(rng.Intn(1 << 20))
		switch rng.Intn(4) {
		case 0:
			la, va := a.FetchAccess(addr)
			lb, vb := b.FetchAccess(addr)
			if la != lb || va != vb {
				t.Fatalf("access %d: fetch %d/%v vs %d/%v", i, la, va, lb, vb)
			}
		case 1:
			write := rng.Intn(2) == 0
			la, va := a.DataAccess(addr, write)
			lb, vb := b.DataAccess(addr, write)
			if la != lb || va != vb {
				t.Fatalf("access %d: data %d/%v vs %d/%v", i, la, va, lb, vb)
			}
		case 2:
			a.WarmFetch(addr)
			b.WarmFetch(addr)
		default:
			write := rng.Intn(2) == 0
			a.WarmData(addr, write)
			b.WarmData(addr, write)
		}
	}
}

// TestHierarchyResetEqualsNew covers the TLBs and the hierarchy's own
// event counters along with the caches.
func TestHierarchyResetEqualsNew(t *testing.T) {
	h := newHierarchy()
	sameHierarchyTraffic(t, h, newHierarchy(), rand.New(rand.NewSource(7)), 20_000)
	h.Snapshot(nil)
	if h.L2Accesses == 0 || h.MemAccesses == 0 || h.DTLB.Stats().Misses == 0 {
		t.Fatal("traffic left the counters untouched; the test dirtied nothing")
	}
	h.Reset()
	fresh := newHierarchy()
	if !reflect.DeepEqual(h, fresh) {
		t.Fatal("reset hierarchy differs from a new one")
	}
	if !reflect.DeepEqual(h.Snapshot(nil), fresh.Snapshot(nil)) {
		t.Fatal("reset hierarchy snapshots differently from a new one")
	}
	sameHierarchyTraffic(t, h, fresh, rand.New(rand.NewSource(8)), 10_000)
	if !reflect.DeepEqual(h, fresh) {
		t.Fatal("reset hierarchy diverged from a new one under identical traffic")
	}
}
