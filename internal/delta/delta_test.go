package delta

import (
	"math/rand"
	"slices"
	"testing"
)

func TestChainSequencing(t *testing.T) {
	var c Chain
	if c.Seq() != 0 {
		t.Fatalf("fresh chain at seq %d", c.Seq())
	}
	if _, err := c.Next(0); err == nil {
		t.Fatal("delta before any keyframe must fail")
	}
	if got := c.Keyframe(); got != 1 {
		t.Fatalf("first keyframe numbered %d", got)
	}
	seq, err := c.Next(1)
	if err != nil || seq != 2 {
		t.Fatalf("Next(1) = %d, %v", seq, err)
	}
	if _, err := c.Next(1); err == nil {
		t.Fatal("stale baseline must fail")
	}
	if _, err := c.Next(3); err == nil {
		t.Fatal("future baseline must fail")
	}
	if got := c.Keyframe(); got != 3 {
		t.Fatalf("keyframe after delta numbered %d", got)
	}
	c.Invalidate()
	if _, err := c.Next(3); err == nil {
		t.Fatal("delta across Invalidate must fail")
	}
	if got := c.Keyframe(); got != 1 {
		t.Fatalf("keyframe after Invalidate numbered %d", got)
	}
}

// TestBitmapCoversMarks is the bitmap's soundness property: every
// marked entry's block is drained, in ascending order, exactly once —
// and Count, which sizes the drain, agrees with it (padding bits of a
// MarkAll excluded).
func TestBitmapCoversMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n     int
		grain uint8
	}{
		{1, 0}, {7, 1}, {64, 3}, {100, 3}, {4096, 5}, {16384, 3}, {777, 6},
	} {
		bm := NewBitmap(tc.n, tc.grain)
		// A fresh bitmap drains every block (all-dirty start).
		wantBlocks := (tc.n + (1 << tc.grain) - 1) >> tc.grain
		if c := bm.Count(); c != wantBlocks {
			t.Fatalf("n=%d grain=%d: fresh bitmap counts %d blocks, want %d", tc.n, tc.grain, c, wantBlocks)
		}
		all := bm.Drain(nil)
		if len(all) != wantBlocks {
			t.Fatalf("n=%d grain=%d: fresh bitmap drains %d blocks, want %d", tc.n, tc.grain, len(all), wantBlocks)
		}
		// After the drain it is clean.
		if c := bm.Count(); c != 0 {
			t.Fatalf("n=%d grain=%d: drained bitmap counts %d blocks", tc.n, tc.grain, c)
		}
		if left := bm.Drain(nil); left != nil {
			t.Fatalf("n=%d grain=%d: %d blocks left after drain", tc.n, tc.grain, len(left))
		}
		// Random marks: the drained blocks must be exactly the marked
		// entries' blocks, ascending.
		marked := map[uint32]bool{}
		for i := 0; i < 50; i++ {
			e := rng.Intn(tc.n)
			bm.Mark(e)
			marked[uint32(e>>tc.grain)] = true
		}
		if c := bm.Count(); c != len(marked) {
			t.Fatalf("n=%d grain=%d: counts %d blocks, marked %d", tc.n, tc.grain, c, len(marked))
		}
		got := bm.Drain(nil)
		if len(got) != len(marked) || cap(got) != len(got) {
			t.Fatalf("n=%d grain=%d: drained %d blocks (cap %d), marked %d", tc.n, tc.grain, len(got), cap(got), len(marked))
		}
		prev := -1
		for _, b := range got {
			if !marked[b] {
				t.Fatalf("n=%d grain=%d: drained unmarked block %d", tc.n, tc.grain, b)
			}
			if int(b) <= prev {
				t.Fatalf("n=%d grain=%d: blocks not ascending", tc.n, tc.grain)
			}
			prev = int(b)
		}
	}
}

func TestValidateBlocks(t *testing.T) {
	// Valid ascending list covering a short tail block.
	total, err := ValidateBlocks([]uint32{0, 2, 3}, 3, 26, "test")
	if err != nil {
		t.Fatal(err)
	}
	if total != 8+8+2 {
		t.Fatalf("covered %d entries, want 18", total)
	}
	if _, err := ValidateBlocks([]uint32{2, 1}, 3, 26, "test"); err == nil {
		t.Fatal("descending blocks accepted")
	}
	if _, err := ValidateBlocks([]uint32{1, 1}, 3, 26, "test"); err == nil {
		t.Fatal("duplicate blocks accepted")
	}
	if _, err := ValidateBlocks([]uint32{4}, 3, 26, "test"); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if _, err := ValidateBlocks(nil, 40, 26, "test"); err == nil {
		t.Fatal("absurd grain accepted")
	}
}

// TestGather: the blocks' segments in order, a short last block
// included, in a slice of exactly their length; nil for no blocks. The
// same holds for a slice carved from a reused, poisoned arena, whose
// earlier carves it must not touch.
func TestGather(t *testing.T) {
	src := make([]uint64, 26)
	for i := range src {
		src[i] = uint64(i)
	}
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25}
	a := new(Arena)
	for round := 0; round < 3; round++ {
		a.Reset(Sizes{})
		a.Poison()
		for _, arena := range []*Arena{nil, a} {
			got := Gather(arena, src, []uint32{0, 2, 3}, 3)
			if !slices.Equal(got, want) || cap(got) != len(want) {
				t.Fatalf("round %d, arena %v: Gather = %v (cap %d), want %v", round, arena != nil, got, cap(got), want)
			}
			next := Gather(arena, src, []uint32{1}, 3)
			if !slices.Equal(next, src[8:16]) || !slices.Equal(got, want) {
				t.Fatalf("round %d, arena %v: a second Gather returned %v and left the first %v", round, arena != nil, next, got)
			}
			if got := Gather(arena, src, nil, 3); got != nil {
				t.Fatalf("Gather over no blocks = %v, want nil", got)
			}
		}
	}
	if n := len(want) + 8; a.Bytes() != 8*(n+n/4) {
		t.Fatalf("arena grew to %d bytes, want a quarter more than the %d it carved", a.Bytes(), 8*(len(want)+8))
	}
}

// TestArenaCarves: a carve that fits its slab allocates nothing and is
// cut to its length; one that does not gets a fresh array, and Reset
// grows the slab to a quarter more than everything carved, or than the
// sizes it is asked to fit, so the same carves then fit.
func TestArenaCarves(t *testing.T) {
	a := new(Arena)
	carve := func() ([]uint64, []uint32, []uint8, []bool) {
		return Make[uint64](a, 100), Make[uint32](a, 7), Clone(a, []uint8{1, 2, 3}), Make[bool](a, 5)
	}
	carve()
	if used := a.Used(); a.Bytes() != 0 || used != (Sizes{100, 7, 3, 5}) {
		t.Fatalf("before Reset: %d bytes kept, %+v used", a.Bytes(), used)
	}
	a.Reset(Sizes{U8: 40})
	if want := (Sizes{125, 8, 50, 6}).Bytes(); a.Bytes() != want {
		t.Fatalf("Reset grew the slabs to %d bytes, want %d", a.Bytes(), want)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Reset(Sizes{})
		u64, u32, u8, b := carve()
		if len(u64) != cap(u64) || len(u32) != cap(u32) || len(u8) != cap(u8) || len(b) != cap(b) {
			t.Fatal("carve not cut to its length")
		}
	}); allocs != 0 {
		t.Fatalf("carving from a grown arena allocates %.1f objects", allocs)
	}
	if got := Clone(a, []uint8{9}); got[0] != 9 || Clone[uint8](nil, nil) != nil {
		t.Fatalf("Clone = %v", got)
	}
}

// TestMarkZeroAlloc pins Mark to zero allocations — it lives inside
// the warm fast paths.
func TestMarkZeroAlloc(t *testing.T) {
	bm := NewBitmap(4096, 3)
	if allocs := testing.AllocsPerRun(1000, func() { bm.Mark(123) }); allocs != 0 {
		t.Fatalf("Mark allocates %.1f objects/op", allocs)
	}
}
