package checkpoint_test

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/uarch"
)

// referenceLaunch is the test's own materialization, kept deliberately
// apart from the package's chain walk: clone the unit's keyframe, apply
// every delta of its chain in order, through the snapshots' public
// Clone/Apply alone.
func referenceLaunch(t *testing.T, u *checkpoint.Unit) (*mem.Image, *checkpoint.WarmState) {
	t.Helper()
	var chain []*checkpoint.Unit
	kf := u
	for kf.Mem == nil {
		chain = append(chain, kf)
		kf = kf.Prev
	}
	img := kf.Mem.Clone()
	var warm *checkpoint.WarmState
	if kf.Warm != nil {
		warm = kf.Warm.Clone()
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if err := img.Apply(chain[i].MemDelta); err != nil {
			t.Fatal(err)
		}
		if warm != nil {
			if err := warm.Apply(chain[i].Delta); err != nil {
				t.Fatal(err)
			}
		}
	}
	return img, warm
}

// pageTable lists an image's pages in ascending order.
func pageTable(img *mem.Image) (nums []uint64, pages []*[mem.PageSize]byte) {
	img.VisitPages(func(n uint64, p *[mem.PageSize]byte) {
		nums = append(nums, n)
		pages = append(pages, p)
	})
	return nums, pages
}

// reference is one unit's keyframe+chain launch state.
type reference struct {
	nums  []uint64
	pages []*[mem.PageSize]byte
	warm  *checkpoint.WarmState
}

// references builds every unit's reference once per set; visits compare
// against them.
func references(t *testing.T, units []*checkpoint.Unit) map[*checkpoint.Unit]reference {
	t.Helper()
	refs := make(map[*checkpoint.Unit]reference, len(units))
	for _, u := range units {
		img, warm := referenceLaunch(t, u)
		nums, pages := pageTable(img)
		refs[u] = reference{nums, pages, warm}
	}
	return refs
}

func cacheStateEqual(a, b *cache.State) bool {
	return a.Stamp == b.Stamp && slices.Equal(a.Tags, b.Tags) && slices.Equal(a.Valid, b.Valid) &&
		slices.Equal(a.Dirty, b.Dirty) && slices.Equal(a.LastUsed, b.LastUsed)
}

// warmEqual compares two warm states array by array (reflect.DeepEqual
// says the same, far too slowly for a few thousand visits under -race).
func warmEqual(a, b *checkpoint.WarmState) bool {
	if a == nil || b == nil {
		return a == b
	}
	ah, bh, ap, bp := a.Hier, b.Hier, a.Pred, b.Pred
	return cacheStateEqual(ah.IL1, bh.IL1) && cacheStateEqual(ah.DL1, bh.DL1) && cacheStateEqual(ah.L2, bh.L2) &&
		cacheStateEqual(ah.ITLB, bh.ITLB) && cacheStateEqual(ah.DTLB, bh.DTLB) &&
		slices.Equal(ap.Bimodal, bp.Bimodal) && slices.Equal(ap.Gshare, bp.Gshare) && slices.Equal(ap.Chooser, bp.Chooser) &&
		ap.History == bp.History && slices.Equal(ap.BTBTags, bp.BTBTags) && slices.Equal(ap.BTBTgts, bp.BTBTgts) &&
		slices.Equal(ap.BTBValid, bp.BTBValid) && slices.Equal(ap.BTBLRU, bp.BTBLRU) && ap.BTBStamp == bp.BTBStamp &&
		slices.Equal(ap.RAS, bp.RAS) && ap.RASTop == bp.RASTop
}

// launchEqualsReference requires a materialized launch state to equal
// the reference bit for bit: every warm array and stamp, and the same
// pages with the same contents.
func launchEqualsReference(t *testing.T, what string, u *checkpoint.Unit, got *checkpoint.Launch, want reference) {
	t.Helper()
	if !warmEqual(got.Warm, want.warm) {
		t.Fatalf("%s: unit %d: warm state differs from the keyframe+chain reference", what, u.Index)
	}
	nums, pages := pageTable(got.Mem)
	if !slices.Equal(nums, want.nums) {
		t.Fatalf("%s: unit %d: page table lists %d pages, reference %d", what, u.Index, len(nums), len(want.nums))
	}
	for i := range pages {
		if pages[i] != want.pages[i] && *pages[i] != *want.pages[i] {
			t.Fatalf("%s: unit %d: page %#x differs from the reference", what, u.Index, nums[i])
		}
	}
}

// setDigest hashes the set's store encoding: any mutation of a shared
// snapshot — a keyframe patched in place, a page table aliased into a
// rolling state — changes it.
func setDigest(t *testing.T, key checkpoint.Key, set *checkpoint.Set) [sha256.Size]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := checkpoint.EncodeSet(&buf, key, set); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestMaterializerMatchesReference is the rolling materializer's
// property test. Over warmed, cold and multi-offset captures at keyframe
// intervals 1, 4 and 64, it visits units the ways a replay pool does
// and the ways it must merely survive — every unit in order, random
// ascending subsequences (jumps within and across keyframe intervals),
// two workers interleaving one stream, concurrent workers over shared
// units, and out-of-order visits (which must fall back to the keyframe)
// — and requires every launch state to equal the keyframe+chain
// reference bit for bit, with the set's encoding unchanged afterwards.
func TestMaterializerMatchesReference(t *testing.T) {
	// gzipx keeps writing new pages all along the stream (gccx and most
	// of the suite settle into a read-only working set, which would leave
	// every memory delta empty and half of this test vacuous).
	p := genProg(t, "gzipx", 300_000)
	cfg := uarch.Config8Way()
	for _, tc := range []struct {
		name   string
		params checkpoint.Params
	}{
		{"warmed", checkpoint.Params{U: 1000, W: 2000, K: 3, FunctionalWarm: true}},
		{"cold", checkpoint.Params{U: 1000, K: 3}},
		{"offsets", checkpoint.Params{U: 1000, W: 2000, K: 6, Offsets: []uint64{0, 1, 4}, FunctionalWarm: true}},
	} {
		for _, kf := range []int{1, 4, 64} {
			params := tc.params
			params.Keyframe = kf
			set := capture(t, p, cfg, params)
			key := checkpoint.KeyFor(p, cfg, params)
			before := setDigest(t, key, set)
			rng := rand.New(rand.NewSource(int64(kf)))
			refs := references(t, set.Units)
			if kf > 1 {
				dirtyPages := 0
				for _, u := range set.Units {
					if u.MemDelta != nil {
						dirtyPages += u.MemDelta.Len()
					}
				}
				if dirtyPages == 0 {
					t.Fatalf("%s/kf%d: no memory delta carries a page; the memory half is untested", tc.name, kf)
				}
			}

			visit := func(what string, m *checkpoint.Materializer, u *checkpoint.Unit) {
				t.Helper()
				got, err := m.Materialize(u)
				if err != nil {
					t.Fatalf("%s/kf%d %s: unit %d: %v", tc.name, kf, what, u.Index, err)
				}
				launchEqualsReference(t, tc.name+" "+what, u, got, refs[u])
			}

			streams := [][]*checkpoint.Unit{set.Units}
			if len(params.Offsets) > 0 {
				// One offset's units skip the others' in the shared chain.
				streams = append(streams, set.Offset(4).Units)
			}
			for _, units := range streams {
				var inOrder, sparse, a, b, back checkpoint.Materializer
				for i, u := range units {
					visit("in order", &inOrder, u)
					if rng.Intn(3) == 0 {
						visit("ascending subsequence", &sparse, u)
					}
					if i%2 == 0 {
						visit("interleaved worker a", &a, u)
					} else {
						visit("interleaved worker b", &b, u)
					}
				}
				for n := 0; n < 3*len(units); n++ {
					visit("out of order", &back, units[rng.Intn(len(units))])
				}

				// Concurrent workers over the same shared units (the race
				// detector's half of "nothing shared is written").
				var wg sync.WaitGroup
				for w := 0; w < 2; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var m checkpoint.Materializer
						for i := w; i < len(units); i += 2 {
							if _, err := m.Materialize(units[i]); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}

			if after := setDigest(t, key, set); after != before {
				t.Fatalf("%s/kf%d: materializing mutated the shared set", tc.name, kf)
			}
		}
	}
}

// TestMaterializerRefusesStaleWarmState: a cold unit in a warmed chain
// (capture never produces one; a spliced store entry could) leaves the
// rolling warm state behind the rolling memory. The next warmed unit
// must then fail as a broken chain — never launch from the stale warm
// arrays — and the Materializer must stay usable.
func TestMaterializerRefusesStaleWarmState(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	set := capture(t, p, uarch.Config8Way(), checkpoint.Params{U: 1000, W: 1000, K: 5, FunctionalWarm: true})
	kf, a, b := set.Units[0], set.Units[1], set.Units[2]
	if kf.Warm == nil || a.Delta == nil || b.Delta == nil {
		t.Fatal("want a keyframe followed by two delta units")
	}
	a.Delta = nil // a is now a cold unit mid-chain

	var m checkpoint.Materializer
	if _, err := m.Materialize(kf); err != nil {
		t.Fatal(err)
	}
	if got, err := m.Materialize(a); err != nil || got.Warm != nil {
		t.Fatalf("cold unit: launch %+v, err %v; want a nil Warm", got, err)
	}
	if _, err := m.Materialize(b); err == nil {
		t.Fatal("warmed unit downstream of a cold one materialized from stale warm state")
	}
	got, err := m.Materialize(kf)
	if err != nil {
		t.Fatal(err)
	}
	if !warmEqual(got.Warm, kf.Warm) {
		t.Fatal("Materializer did not recover after the broken chain")
	}
}
