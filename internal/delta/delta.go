// Package delta defines the snapshot/delta-chain contract shared by
// every incrementally checkpointable structure in the simulator — the
// warmed caches and TLBs (internal/cache), the branch predictor
// (internal/bpred), their ensemble (uarch.Warmer), and the sparse
// memory (mem.Memory) — plus the two mechanisms they all build on: a
// sequence-checked chain position (Chain) and a fixed-granularity dirty
// bitmap (Bitmap).
//
// # The contract
//
// A Source evolves over time and can be captured incrementally:
//
//   - Snapshot returns a keyframe: a full, immutable copy of the
//     current state. Taking it resets the source's dirty tracking and
//     starts a new chain link, so the keyframe is the baseline the next
//     Delta is measured against.
//   - Delta(since) returns only the state dirtied since the chain link
//     numbered since, which must be the source's latest link (Seq) —
//     deltas chain strictly; skipping a link would silently drop
//     changes, so that is an error, enforced by Chain.
//   - Seq reports the source's current chain link, assigned in capture
//     order across Snapshot and Delta calls.
//
// Snapshot and Delta carve their arrays from the Arena they are given
// (arena.go), or make fresh, exactly sized ones for a nil Arena. A
// capture sweep whose units nothing retains passes the arena of the
// keyframe interval being captured and recycles it once every unit of
// the interval has launched; everything else passes nil.
//
// mem.Memory keeps the same chain contract (a Snapshot keyframe,
// sequence-checked Delta(since), Seq) without an arena: its snapshots
// share pages copy-on-write and its deltas carry the memory's own page
// arrays, so there is nothing to carve.
//
// A State is the materialization side: applying a delta to (a copy of)
// the snapshot the delta was taken against reproduces the next full
// snapshot exactly. Chains therefore reconstruct any captured point as
// keyframe + the deltas up to it, bit-identically — the property the
// checkpoint layer's bit-identical-schedules guarantee rests on, and
// which each implementation pins with randomized property tests.
//
// Dirty tracking may over-approximate freely (restoring a snapshot
// marks everything dirty) but must never under-approximate: every
// mutation between two snapshot points must be covered by the next
// delta.
package delta

import (
	"fmt"
	"math/bits"
)

// Source is the capture side of the contract; S is the full-snapshot
// type and D the delta type. Implementations: cache.Cache, cache.TLB,
// cache.Hierarchy, bpred.Unit, uarch.Warmer.
type Source[S any, D any] interface {
	// Snapshot captures a keyframe into arrays carved from a (fresh ones
	// for a nil a), resets dirty tracking, and advances the chain.
	Snapshot(a *Arena) S
	// Delta captures the changes since chain link since (which must be
	// the latest) into arrays carved from a, and advances the chain.
	Delta(a *Arena, since uint64) (D, error)
	// Seq returns the current chain link number (0 before the first
	// snapshot).
	Seq() uint64
}

// State is the materialization side of the contract: a full snapshot
// that can be advanced by applying deltas. The receiver must be (a copy
// of) the snapshot the delta was taken against; implementations
// validate the delta's geometry and reject inconsistencies, so corrupt
// deserialized deltas fail loudly instead of corrupting state.
// Implementations: cache.State, cache.HierarchyState, bpred.State,
// checkpoint.WarmState, mem.Image.
type State[D any] interface {
	Apply(D) error
}

// Chain tracks a source's position in its delta chain and enforces the
// strict-chaining rule. The zero value is ready to use: no snapshot has
// been taken, so deltas are rejected until the first Keyframe.
type Chain struct {
	seq uint64
}

// Keyframe starts a new chain link for a full snapshot and returns its
// sequence number.
func (c *Chain) Keyframe() uint64 {
	c.seq++
	return c.seq
}

// Next validates that since is the latest link and advances the chain
// for a delta, returning the delta's sequence number.
func (c *Chain) Next(since uint64) (uint64, error) {
	if c.seq == 0 || since != c.seq {
		return 0, fmt.Errorf("delta: chaining against snapshot %d, latest is %d", since, c.seq)
	}
	c.seq++
	return c.seq, nil
}

// Seq returns the latest link number (0 before the first keyframe).
func (c *Chain) Seq() uint64 { return c.seq }

// Invalidate resets the chain to its pre-snapshot state: subsequent
// Next calls fail until a new Keyframe establishes a baseline. Sources
// whose state is replaced wholesale (mem.Memory.Reset) use it so a
// stale delta can never be taken across the discontinuity.
func (c *Chain) Invalidate() { c.seq = 0 }

// Bitmap is a fixed-granularity dirty bitmap over n entries: one bit
// per 1<<grainShift consecutive entries ("block"). Marking is two
// shifts and an OR — cheap enough to live inside the warm-update and
// memory-write fast paths, which must stay at zero allocations per
// instruction. The zero value is unusable; construct with NewBitmap.
//
//simlint:unpadded embedded by value in the padded structs whose writes it tracks
type Bitmap struct {
	words []uint64
	// grainShift is log2 entries per block; wordShift converts an entry
	// index straight to its bitmap word index (64 blocks per word).
	grainShift uint8
	wordShift  uint8
	blocks     int // number of blocks covering n (excludes padding bits)
}

// NewBitmap allocates an all-dirty bitmap covering n entries at the
// given block granularity (log2 entries per bit). Starting all-dirty
// makes the first delta taken without a prior keyframe conservatively
// carry everything.
func NewBitmap(n int, grainShift uint8) Bitmap {
	blocks := (n + (1 << grainShift) - 1) >> grainShift
	b := Bitmap{
		words:      make([]uint64, (blocks+63)/64),
		grainShift: grainShift,
		wordShift:  grainShift + 6,
		blocks:     blocks,
	}
	b.MarkAll()
	return b
}

// Grain returns the bitmap's log2 entries per block.
func (b *Bitmap) Grain() uint8 { return b.grainShift }

// Mark records that entry i may have changed since the last snapshot
// point. It is the fast-path operation: small enough to inline into the
// callers' update loops.
//
//simlint:hotpath
func (b *Bitmap) Mark(i int) {
	b.words[uint(i)>>b.wordShift] |= 1 << ((uint(i) >> b.grainShift) & 63)
}

// MarkAll forces the next delta to carry every block.
//
//simlint:hotpath
func (b *Bitmap) MarkAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
}

// Reset clears the dirty tracking, establishing the current contents as
// the baseline the next delta is measured against.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count returns the number of dirty blocks — the length of the next
// Drain. Padding bits beyond the covered range (which MarkAll sets) are
// not counted.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	if tail := b.blocks & 63; tail != 0 {
		n -= bits.OnesCount64(b.words[len(b.words)-1] >> tail)
	}
	return n
}

// Drain returns the dirty block indices in ascending order, in a slice
// sized exactly from Count and carved from a (nil when nothing is
// dirty), and clears the tracking; padding bits beyond the covered range
// are skipped. It is the operation delta capture is built on.
func (b *Bitmap) Drain(a *Arena) []uint32 {
	var dst []uint32
	if k := b.Count(); k > 0 {
		dst = Make[uint32](a, k)[:0]
	}
	for w, word := range b.words {
		for word != 0 {
			blk := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if blk >= b.blocks {
				continue
			}
			dst = append(dst, uint32(blk))
		}
		b.words[w] = 0
	}
	return dst
}

// Span returns the entry range [lo, hi) covered by block b at the given
// granularity in arrays of n entries (the last block may be short).
//
//simlint:hotpath
func Span(b uint32, grainShift uint8, n int) (lo, hi int) {
	lo = int(b) << grainShift
	hi = lo + 1<<grainShift
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Gather returns the segments of src that an ascending block list
// covers at the given granularity, concatenated in block order, in a
// slice of exactly their length carved from a (nil for no blocks) — one
// content array of a delta.
func Gather[T Elem](a *Arena, src []T, blocks []uint32, grainShift uint8) []T {
	if len(blocks) == 0 {
		return nil
	}
	lo, hi := Span(blocks[len(blocks)-1], grainShift, len(src))
	dst := Make[T](a, (len(blocks)-1)<<grainShift+hi-lo)[:0]
	for _, b := range blocks {
		lo, hi := Span(b, grainShift, len(src))
		dst = append(dst, src[lo:hi]...)
	}
	return dst
}

// ValidateBlocks checks one ascending dirty-block list against n
// entries at the given granularity and returns the total entry count
// the blocks cover. Deserialized deltas are validated through it before
// use, so a corrupt block list can never index out of range.
func ValidateBlocks(blocks []uint32, grainShift uint8, n int, what string) (int, error) {
	if grainShift > 30 {
		return 0, fmt.Errorf("delta: %s grain shift %d out of range", what, grainShift)
	}
	total, prev := 0, -1
	for _, b := range blocks {
		if int(b) <= prev {
			return 0, fmt.Errorf("delta: %s blocks not ascending at %d", what, b)
		}
		prev = int(b)
		lo, hi := Span(b, grainShift, n)
		if lo >= n {
			return 0, fmt.Errorf("delta: %s block %d out of range (%d entries)", what, b, n)
		}
		total += hi - lo
	}
	return total, nil
}
