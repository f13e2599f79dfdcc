package cache_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/delta"
)

// TestDeltaMatchesSnapshot is the delta-snapshot correctness property:
// under randomized warm traffic (Touch fast paths, full Accesses,
// occasional Flushes), a chain of Delta applications over the previous
// full snapshot reproduces the exact bytes of a fresh full Snapshot at
// every step. Under-marking a dirty block would fail this immediately;
// the test also exercises the truncated last block of a
// non-multiple-of-grain geometry (the 5-entry config). A twin cache fed
// the same traffic carves its deltas and snapshots from one reused
// arena, poisoned before every round: each must equal the fresh one
// element for element, with its lengths and capacities cut to them, and
// chain to the same snapshots.
func TestDeltaMatchesSnapshot(t *testing.T) {
	for _, cfg := range []cache.Config{
		{Name: "D", Sets: 64, Ways: 2, BlockBits: 6},
		{Name: "W", Sets: 1, Ways: 5, BlockBits: 1}, // 5 entries: truncated dirty block
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			c, twin := cache.New(cfg), cache.New(cfg)
			a := new(delta.Arena)
			rng := rand.New(rand.NewSource(11))
			// Establish the baseline: the keyframe snapshot resets dirty
			// tracking and starts the chain.
			tracked := c.Snapshot(nil)
			trackedA := twin.Snapshot(a).Clone()
			for round := 0; round < 60; round++ {
				n := rng.Intn(500)
				for i := 0; i < n; i++ {
					addr := uint64(rng.Intn(1 << 13))
					write := rng.Intn(3) == 0
					if rng.Intn(2) == 0 {
						if !c.Touch(addr, write) {
							c.Access(addr, write)
						}
						if !twin.Touch(addr, write) {
							twin.Access(addr, write)
						}
					} else {
						c.Access(addr, write)
						twin.Access(addr, write)
					}
				}
				if round == 30 {
					c.Flush() // must mark everything
					twin.Flush()
				}
				d, err := c.Delta(nil, c.Seq())
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				a.Reset(delta.Sizes{})
				a.Poison()
				da, err := twin.Delta(a, twin.Seq())
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := tracked.Apply(d); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := trackedA.Apply(da); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				full, fullA := c.Snapshot(nil), twin.Snapshot(a)
				if !reflect.DeepEqual(tracked, full) || !reflect.DeepEqual(trackedA, full) {
					t.Fatalf("round %d: delta-tracked state diverged from full snapshot", round)
				}
				sameCarve(t, "delta", d, da)
				sameCarve(t, "snapshot", full, fullA)
			}
		})
	}
}

// sameCarve fails unless carved, a snapshot or delta carved from an
// arena, equals fresh, its counterpart made without one, element for
// element, and every slice of carved has fresh's length and a capacity
// cut to it.
func sameCarve(t *testing.T, what string, fresh, carved any) {
	t.Helper()
	if !reflect.DeepEqual(fresh, carved) {
		t.Fatalf("%s carved from the arena differs from the fresh one", what)
	}
	fv, cv := reflect.ValueOf(fresh).Elem(), reflect.ValueOf(carved).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Field(i); f.Kind() == reflect.Slice && (f.Len() != fv.Field(i).Len() || f.Cap() != f.Len()) {
			t.Fatalf("carved %s.%s has len %d, cap %d; the fresh one len %d",
				what, cv.Type().Field(i).Name, f.Len(), f.Cap(), fv.Field(i).Len())
		}
	}
}

// TestDeltaMatchesSnapshotTouchHeavy runs the delta/full property under
// the sweep's dominant traffic: runs of Touch hits on one hot block,
// with snapshot points (deltas, keyframes, Restores, Flushes) falling
// between hits on the same hint. Touch skips re-marking a hint whose
// block the setting Access already marked; a snapshot point that failed
// to reset that would drop the hit's LRU stamp from the next delta. The
// reference is a shadow cache fed the same traffic through Access alone
// (state-identical by Touch's contract), so the cache under test takes
// no snapshot point besides the ones the traffic calls for.
func TestDeltaMatchesSnapshotTouchHeavy(t *testing.T) {
	for _, cfg := range []cache.Config{
		{Name: "D", Sets: 16, Ways: 2, BlockBits: 6},
		{Name: "W", Sets: 1, Ways: 5, BlockBits: 1},
	} {
		t.Run(cfg.Name, func(t *testing.T) {
			c, shadow := cache.New(cfg), cache.New(cfg)
			rng := rand.New(rand.NewSource(17))
			tracked := c.Snapshot(nil)
			saved := tracked.Clone()
			hot := uint64(0)
			touches := 0
			for round := 0; round < 400; round++ {
				for i, n := 0, rng.Intn(6); i < n; i++ {
					if rng.Intn(5) == 0 {
						hot = uint64(rng.Intn(1 << 11))
					}
					write := rng.Intn(4) == 0
					if c.Touch(hot, write) {
						touches++
					} else {
						c.Access(hot, write)
					}
					shadow.Access(hot, write)
				}
				switch rng.Intn(12) {
				case 0: // keyframe
					tracked = c.Snapshot(nil)
					continue
				case 1:
					for _, x := range []*cache.Cache{c, shadow} {
						if err := x.Restore(saved); err != nil {
							t.Fatal(err)
						}
					}
				case 2:
					c.Flush()
					shadow.Flush()
				case 3:
					saved = c.Snapshot(nil)
					tracked = saved.Clone()
					continue
				}
				d, err := c.Delta(nil, c.Seq())
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if err := tracked.Apply(d); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if full := shadow.Snapshot(nil); !reflect.DeepEqual(tracked, full) {
					t.Fatalf("round %d: delta-tracked state diverged from full snapshot", round)
				}
			}
			if touches < 500 {
				t.Fatalf("only %d Touch hits: the traffic is not Touch-heavy", touches)
			}
		})
	}
}

// TestDeltaSlicesExact pins the delta's allocation to its payload:
// every slice is sized exactly (cap == len), not grown block by block —
// including the truncated last block of a 5-entry cache — whether it is
// made fresh or carved from a reused, poisoned arena.
func TestDeltaSlicesExact(t *testing.T) {
	for _, cfg := range []cache.Config{
		{Name: "D", Sets: 64, Ways: 2, BlockBits: 6},
		{Name: "W", Sets: 1, Ways: 5, BlockBits: 1},
	} {
		c, twin := cache.New(cfg), cache.New(cfg)
		a := new(delta.Arena)
		rng := rand.New(rand.NewSource(13))
		c.Snapshot(nil)
		twin.Snapshot(a)
		for round := 0; round < 20; round++ {
			for i := 0; i < rng.Intn(300); i++ {
				addr, write := uint64(rng.Intn(1<<13)), rng.Intn(2) == 0
				c.Access(addr, write)
				twin.Access(addr, write)
			}
			if round == 10 {
				c.Flush()
				twin.Flush()
			}
			d, err := c.Delta(nil, c.Seq())
			if err != nil {
				t.Fatal(err)
			}
			dv := reflect.ValueOf(d).Elem()
			for i := 0; i < dv.NumField(); i++ {
				if f := dv.Field(i); f.Kind() == reflect.Slice && f.Cap() != f.Len() {
					t.Fatalf("%s round %d: Delta.%s has len %d, cap %d", cfg.Name, round, dv.Type().Field(i).Name, f.Len(), f.Cap())
				}
			}
			a.Reset(delta.Sizes{})
			a.Poison()
			da, err := twin.Delta(a, twin.Seq())
			if err != nil {
				t.Fatal(err)
			}
			sameCarve(t, "delta", d, da)
		}
	}
}

// TestDeltaSequencing pins the chain discipline of the delta contract:
// deltas before any snapshot or against stale baselines must fail.
func TestDeltaSequencing(t *testing.T) {
	c := cache.New(cache.Config{Name: "S", Sets: 8, Ways: 2, BlockBits: 6})
	if _, err := c.Delta(nil, 0); err == nil {
		t.Fatal("delta before first snapshot must fail")
	}
	c.Snapshot(nil)
	seq := c.Seq()
	if _, err := c.Delta(nil, seq+7); err == nil {
		t.Fatal("future baseline must fail")
	}
	if _, err := c.Delta(nil, seq); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delta(nil, seq); err == nil {
		t.Fatal("stale baseline must fail")
	}
}

// TestTLBDeltaMatchesSnapshot runs the same property through the TLB
// wrapper (page-granularity keys, Touch fast path).
func TestTLBDeltaMatchesSnapshot(t *testing.T) {
	tlb := cache.NewTLB("T", 16, 4, 12)
	rng := rand.New(rand.NewSource(5))
	tracked := tlb.Snapshot(nil)
	for round := 0; round < 40; round++ {
		for i := 0; i < rng.Intn(800); i++ {
			tlb.Touch(uint64(rng.Intn(1 << 20)))
		}
		d, err := tlb.Delta(nil, tlb.Seq())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := tracked.Apply(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if full := tlb.Snapshot(nil); !reflect.DeepEqual(tracked, full) {
			t.Fatalf("round %d: TLB delta-tracked state diverged", round)
		}
	}
}

// TestDeltaApplyRejectsCorrupt verifies Apply validates geometry and
// segment consistency instead of panicking or silently misapplying —
// the guard that turns corrupt store chains into load misses.
func TestDeltaApplyRejectsCorrupt(t *testing.T) {
	c := cache.New(cache.Config{Name: "V", Sets: 8, Ways: 2, BlockBits: 6})
	c.Access(0x40, true)
	s := c.Snapshot(nil)
	base := func() *cache.Delta {
		cc := cache.New(cache.Config{Name: "V", Sets: 8, Ways: 2, BlockBits: 6})
		cc.Access(0x40, true)
		cc.Snapshot(nil)
		cc.Access(0x80, true)
		d, err := cc.Delta(nil, cc.Seq())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for name, corrupt := range map[string]func(*cache.Delta){
		"geometry":       func(d *cache.Delta) { d.N = 1 << 20 },
		"grain":          func(d *cache.Delta) { d.Grain = 40 },
		"out-of-range":   func(d *cache.Delta) { d.Blocks[0] = 1 << 30 },
		"not-ascending":  func(d *cache.Delta) { d.Blocks = append(d.Blocks, d.Blocks[len(d.Blocks)-1]) },
		"short-segment":  func(d *cache.Delta) { d.Tags = d.Tags[:0] },
		"short-lastused": func(d *cache.Delta) { d.LastUsed = d.LastUsed[:1] },
	} {
		d := base()
		corrupt(d)
		if err := s.Clone().Apply(d); err == nil {
			t.Errorf("%s: corrupt delta applied without error", name)
		}
	}
}

// TestDirtyTrackingZeroAllocs pins the marking added to the warm fast
// paths: Touch and a hitting Access must still not allocate.
func TestDirtyTrackingZeroAllocs(t *testing.T) {
	c := cache.New(cache.Config{Name: "A", Sets: 8, Ways: 2, BlockBits: 6})
	c.Access(0x40, false)
	if allocs := testing.AllocsPerRun(1000, func() {
		if !c.Touch(0x40, true) {
			t.Fatal("warm hit expected")
		}
	}); allocs != 0 {
		t.Fatalf("Touch with dirty tracking allocates %.1f objects/op; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Access(0x80, true)
	}); allocs != 0 {
		t.Fatalf("Access with dirty tracking allocates %.1f objects/op; want 0", allocs)
	}
}

// randomDelta builds a structurally valid delta over n entries at the
// given grain: a random ascending block subset (the last, possibly
// ragged, block included about half the time) with random contents.
func randomDelta(rng *rand.Rand, n int, grain uint8) *cache.Delta {
	d := &cache.Delta{N: n, Grain: grain, Stamp: rng.Uint64()}
	blocks := (n + 1<<grain - 1) >> grain
	for b := 0; b < blocks; b++ {
		if rng.Intn(3) != 0 {
			continue
		}
		d.Blocks = append(d.Blocks, uint32(b))
		lo := b << grain
		hi := min(lo+1<<grain, n)
		for i := lo; i < hi; i++ {
			d.Tags = append(d.Tags, rng.Uint64())
			d.Valid = append(d.Valid, rng.Intn(2) == 0)
			d.Dirty = append(d.Dirty, rng.Intn(2) == 0)
			d.LastUsed = append(d.LastUsed, rng.Uint64())
		}
	}
	return d
}

// randomState is a full state of n entries with random contents.
func randomState(rng *rand.Rand, n int) *cache.State {
	s := &cache.State{Stamp: rng.Uint64()}
	for i := 0; i < n; i++ {
		s.Tags = append(s.Tags, rng.Uint64())
		s.Valid = append(s.Valid, rng.Intn(2) == 0)
		s.Dirty = append(s.Dirty, rng.Intn(2) == 0)
		s.LastUsed = append(s.LastUsed, rng.Uint64())
	}
	return s
}

// applyByBlock is the generic per-block copy State.Apply's small-block
// kernel must agree with.
func applyByBlock(s *cache.State, d *cache.Delta) {
	off := 0
	for _, b := range d.Blocks {
		lo := int(b) << d.Grain
		hi := min(lo+1<<d.Grain, d.N)
		w := hi - lo
		copy(s.Tags[lo:hi], d.Tags[off:off+w])
		copy(s.Valid[lo:hi], d.Valid[off:off+w])
		copy(s.Dirty[lo:hi], d.Dirty[off:off+w])
		copy(s.LastUsed[lo:hi], d.LastUsed[off:off+w])
		off += w
	}
	s.Stamp = d.Stamp
}

// TestApplyKernelMatchesBlockCopy pins State.Apply, which copies each
// block element by element, to the generic per-block copy at every grain
// from 0 to 3 and on ragged geometries whose last block is short.
func TestApplyKernelMatchesBlockCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for grain := uint8(0); grain <= 3; grain++ {
		for _, n := range []int{1, 5, 7, 64, 67, 1021} {
			for trial := 0; trial < 20; trial++ {
				base := randomState(rng, n)
				d := randomDelta(rng, n, grain)
				got, want := base.Clone(), base.Clone()
				if err := got.Apply(d); err != nil {
					t.Fatalf("grain %d n %d: %v", grain, n, err)
				}
				applyByBlock(want, d)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("grain %d n %d trial %d: kernel diverged from the per-block copy", grain, n, trial)
				}
			}
		}
	}
}

// BenchmarkStateApply applies an L2-sized delta (16K entries, a third of
// the blocks dirty) at the package's own grain.
func BenchmarkStateApply(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 16 << 10
	s := randomState(rng, n)
	d := randomDelta(rng, n, cache.GrainShift)
	b.SetBytes(int64(d.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Apply(d); err != nil {
			b.Fatal(err)
		}
	}
}
