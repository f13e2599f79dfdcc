package mem_test

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// imagesEqual compares two images over the union of their page sets,
// byte for byte.
func imagesEqual(t *testing.T, what string, got, want *mem.Image) {
	t.Helper()
	gm, wm := got.NewMemory(), want.NewMemory()
	nums := map[uint64]bool{}
	for _, n := range gm.Pages() {
		nums[n] = true
	}
	for _, n := range wm.Pages() {
		nums[n] = true
	}
	gb := make([]byte, mem.PageSize)
	wb := make([]byte, mem.PageSize)
	for n := range nums {
		gm.ReadBytes(n*mem.PageSize, gb)
		wm.ReadBytes(n*mem.PageSize, wb)
		for i := range gb {
			if gb[i] != wb[i] {
				t.Fatalf("%s: memory differs at %#x: %#x vs %#x", what, n*mem.PageSize+uint64(i), gb[i], wb[i])
			}
		}
	}
}

// TestDeltaChainReproducesImage is the dirty-page journal's soundness
// property: under randomized write traffic (mixed widths, page-crossing
// accesses, fresh pages, re-dirtied pages, bulk writes), a clone of the
// keyframe image advanced by the chain of deltas equals the full
// Snapshot taken at each point, bit for bit.
func TestDeltaChainReproducesImage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 5; trial++ {
		m := mem.New()
		// Initial population (pre-keyframe writes are not part of any
		// delta; the keyframe carries them).
		for i := 0; i < 200; i++ {
			m.Write64(rng.Uint64()%(64*mem.PageSize), rng.Uint64())
		}

		keyframe := m.Snapshot()
		seq := m.Seq()
		tracked := keyframe.Clone()

		for step := 0; step < 20; step++ {
			writes := rng.Intn(40)
			for i := 0; i < writes; i++ {
				// Mix page-local, page-crossing, far, and bulk writes.
				addr := rng.Uint64() % (80 * mem.PageSize)
				switch rng.Intn(5) {
				case 0:
					m.Write8(addr, uint8(rng.Intn(256)))
				case 1:
					m.Write32(addr, rng.Uint32())
				case 2:
					m.Write64(addr, rng.Uint64())
				case 3:
					m.Write64(addr|0xff9, rng.Uint64()) // straddles a page boundary
				case 4:
					buf := make([]byte, 1+rng.Intn(3*mem.PageSize))
					rng.Read(buf)
					m.WriteBytes(addr, buf)
				}
				// Interleave reads so the page cache state varies.
				_ = m.Read64(addr)
			}

			d, err := m.Delta(seq)
			if err != nil {
				t.Fatal(err)
			}
			if d.Since != seq || d.Seq != seq+1 {
				t.Fatalf("delta chain numbers: %d->%d after %d", d.Since, d.Seq, seq)
			}
			seq = d.Seq
			if err := tracked.Apply(d); err != nil {
				t.Fatal(err)
			}
			imagesEqual(t, "tracked chain", tracked, m.Snapshot())
			// The Snapshot above started a new chain link; re-anchor.
			seq = m.Seq()
		}
	}
}

// TestDeltaDoesNotAliasLiveState verifies a delta's pages are frozen at
// capture: writes after the delta must not leak into it (the delta
// point marks its pages copy-on-write).
func TestDeltaDoesNotAliasLiveState(t *testing.T) {
	m := mem.New()
	m.Write64(0x1000, 1)
	base := m.Snapshot()
	m.Write64(0x1000, 2)
	d, err := m.Delta(m.Seq())
	if err != nil {
		t.Fatal(err)
	}
	m.Write64(0x1000, 3) // must copy-on-write, not mutate the delta's page
	at := base.Clone()
	if err := at.Apply(d); err != nil {
		t.Fatal(err)
	}
	if got := at.NewMemory().Read64(0x1000); got != 2 {
		t.Fatalf("delta page mutated after capture: read %d, want 2", got)
	}
	if got := m.Read64(0x1000); got != 3 {
		t.Fatalf("live memory lost its write: read %d, want 3", got)
	}
}

// TestDeltaSequencing pins the chain discipline: deltas before any
// snapshot, against stale baselines, or across Reset must fail.
func TestDeltaSequencing(t *testing.T) {
	m := mem.New()
	if _, err := m.Delta(0); err == nil {
		t.Fatal("delta before first snapshot must fail")
	}
	m.Snapshot()
	first := m.Seq()
	if _, err := m.Delta(first + 1); err == nil {
		t.Fatal("future baseline must fail")
	}
	if _, err := m.Delta(first); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Delta(first); err == nil {
		t.Fatal("stale baseline must fail")
	}
	m.Reset()
	if _, err := m.Delta(m.Seq()); err == nil {
		t.Fatal("delta across Reset must fail")
	}
	m.Snapshot() // a fresh keyframe restarts the chain
	if _, err := m.Delta(m.Seq()); err != nil {
		t.Fatal(err)
	}
}

// TestApplyRejectsCorruptDelta covers the validation path deserialized
// deltas rely on.
func TestApplyRejectsCorruptDelta(t *testing.T) {
	img := new(mem.Image).Clone()
	page := new([mem.PageSize]byte)
	for _, d := range []*mem.Delta{
		{Nums: []uint64{1}, Pages: nil},
		{Nums: []uint64{2, 1}, Pages: []*[mem.PageSize]byte{page, page}},
		{Nums: []uint64{1, 1}, Pages: []*[mem.PageSize]byte{page, page}},
		{Nums: []uint64{1}, Pages: []*[mem.PageSize]byte{nil}},
	} {
		if err := img.Apply(d); err == nil {
			t.Fatalf("corrupt delta %+v applied without error", d)
		}
	}
}

// TestJournalZeroAllocSteadyState pins the write fast paths to zero
// allocations with an open delta chain: journaling happens only when a
// page transitions to writable, never per store.
func TestJournalZeroAllocSteadyState(t *testing.T) {
	m := mem.New()
	m.Write64(0x1000, 1)
	m.Snapshot()
	m.Write64(0x1000, 2) // copy-on-write + journal the page once
	allocs := testing.AllocsPerRun(1000, func() {
		m.Write64(0x1008, 42)
		if m.Read64(0x1008) != 42 {
			t.Fatal("readback mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state writes under an open chain allocate %.1f objects/op; want 0", allocs)
	}
}
