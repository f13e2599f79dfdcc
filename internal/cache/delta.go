package cache

// Delta snapshots: dirty-block encoding of cache state, implementing
// the shared snapshot/delta-chain contract of internal/delta.
//
// Every content-bearing array of a Cache (tags, valid/dirty bits, LRU
// stamps) is covered by one delta.Bitmap at a fixed granularity of
// 1<<GrainShift entries per block. The state-update fast paths (Touch,
// Access) mark the block containing each touched entry; Delta then
// copies only the marked blocks — the state that can have changed since
// the previous snapshot point — and State.Apply patches them back over
// a full snapshot. Marking over-approximates freely (Flush and Restore
// mark everything) but must never under-approximate: the delta/full
// equivalence is property-tested in delta_test.go and is what keeps
// delta-encoded checkpoints bit-identical to full ones.
//
// Deltas are self-describing: each carries its grain, so a consumer
// (or a store entry written under an older granularity) reconstructs
// with the grain the delta was captured at, not whatever this package
// currently uses.

import (
	"fmt"

	"repro/internal/delta"
)

// The cache structures implement the shared snapshot/delta contract.
var (
	_ delta.Source[*State, *Delta]                   = (*Cache)(nil)
	_ delta.Source[*State, *Delta]                   = (*TLB)(nil)
	_ delta.Source[*HierarchyState, *HierarchyDelta] = (*Hierarchy)(nil)
	_ delta.State[*Delta]                            = (*State)(nil)
	_ delta.State[*HierarchyDelta]                   = (*HierarchyState)(nil)
)

// GrainShift is log2 of the dirty-tracking granularity this package
// captures deltas at: 2 entries (~36 bytes of tag+LRU+flag state)
// share one dirty bit. The dominant warm traffic is scattered single-
// entry LRU-stamp updates — cache indexing hashes accesses across sets
// — so a near-entry grain carries the least dead weight per dirty bit;
// the bitmap stays small regardless (a 1MB L2's 16K entries need a
// 128-word bitmap). Decoded deltas carry their own grain, so changing
// this constant never invalidates stored chains.
const GrainShift = 1

// Delta is a dirty-block delta between two snapshots of one cache: the
// scalar stamp plus, for each dirty block, that block's segment of every
// content array, concatenated in ascending block order. Block b covers
// entries [b<<Grain, min((b+1)<<Grain, N)).
type Delta struct {
	// N is the entry count of the full arrays and Grain the log2 block
	// granularity (geometry checks).
	N     int
	Grain uint8
	Stamp uint64
	// Blocks holds the dirty block indices, strictly ascending.
	Blocks []uint32
	// Tags, Valid, Dirty, and LastUsed hold the dirty blocks' segments
	// of the corresponding State arrays, concatenated in Blocks order.
	Tags     []uint64
	Valid    []bool
	Dirty    []bool
	LastUsed []uint64
}

// Seq returns the cache's current snapshot-chain link (0 before the
// first Snapshot).
func (c *Cache) Seq() uint64 { return c.chain.Seq() }

// Delta captures the blocks touched since the snapshot point numbered
// since — which must be the cache's latest (Snapshot or Delta); deltas
// chain strictly — into arrays carved from a (fresh ones for a nil a),
// and clears the dirty tracking. Applying the delta to a copy of the
// previous snapshot (State.Apply) reproduces Snapshot exactly.
func (c *Cache) Delta(a *delta.Arena, since uint64) (*Delta, error) {
	if _, err := c.chain.Next(since); err != nil {
		return nil, fmt.Errorf("cache %s: %w", c.cfg.Name, err)
	}
	blocks, g := c.snapDirty.Drain(a), c.snapDirty.Grain()
	c.hintMarked = false
	return &Delta{
		N:        len(c.tags),
		Grain:    g,
		Stamp:    c.stamp,
		Blocks:   blocks,
		Tags:     delta.Gather(a, c.tags, blocks, g),
		Valid:    delta.Gather(a, c.valid, blocks, g),
		Dirty:    delta.Gather(a, c.dirty, blocks, g),
		LastUsed: delta.Gather(a, c.lastUsed, blocks, g),
	}, nil
}

// Validate checks the delta's internal consistency against a full-array
// length of n entries: ascending in-range blocks and matching segment
// totals. Deserialized deltas are validated before use so corrupt store
// entries can never index out of range.
//
//simlint:coldpath geometry validation; one pass over the block list, allocates only to report a corrupt delta
func (d *Delta) Validate(n int) error {
	if d.N != n {
		return fmt.Errorf("cache delta: geometry %d entries, state has %d", d.N, n)
	}
	total, err := delta.ValidateBlocks(d.Blocks, d.Grain, n, "cache")
	if err != nil {
		return err
	}
	if len(d.Tags) != total || len(d.Valid) != total || len(d.Dirty) != total || len(d.LastUsed) != total {
		return fmt.Errorf("cache delta: segment lengths %d/%d/%d/%d, want %d",
			len(d.Tags), len(d.Valid), len(d.Dirty), len(d.LastUsed), total)
	}
	return nil
}

// Bytes returns the approximate in-memory payload size of the delta,
// the quantity the snapshotBytes/unit metric tracks.
func (d *Delta) Bytes() int {
	return 8 + 4*len(d.Blocks) + 8*len(d.Tags) + len(d.Valid) + len(d.Dirty) + 8*len(d.LastUsed)
}

// Bytes returns the approximate in-memory payload size of a full
// snapshot.
func (s *State) Bytes() int {
	return 8 + 8*len(s.Tags) + len(s.Valid) + len(s.Dirty) + 8*len(s.LastUsed)
}

// Clone returns a deep copy of the snapshot.
func (s *State) Clone() *State {
	return &State{
		Tags:     append([]uint64(nil), s.Tags...),
		Valid:    append([]bool(nil), s.Valid...),
		Dirty:    append([]bool(nil), s.Dirty...),
		LastUsed: append([]uint64(nil), s.LastUsed...),
		Stamp:    s.Stamp,
	}
}

// CopyFrom makes s a deep copy of src, reusing s's arrays when they
// already have src's geometry — the copy-into-existing form of Clone a
// rolling launch state refills at each keyframe without allocating.
//
//simlint:hotpath
func (s *State) CopyFrom(src *State) {
	if len(s.Tags) != len(src.Tags) {
		//simlint:coldpath first use (or a geometry change): allocate the arrays once
		*s = *src.Clone()
		return
	}
	copy(s.Tags, src.Tags)
	copy(s.Valid, src.Valid)
	copy(s.Dirty, src.Dirty)
	copy(s.LastUsed, src.LastUsed)
	s.Stamp = src.Stamp
}

// Apply patches the snapshot forward by one delta: after Apply, the
// state equals the full Snapshot taken at the point the delta was
// captured. The receiver must be (a copy of) the snapshot the delta was
// taken against.
//
//simlint:hotpath
func (s *State) Apply(d *Delta) error {
	if err := d.Validate(len(s.Tags)); err != nil {
		return err
	}
	// Blocks are copied element by element: at GrainShift's two entries
	// a block, four copy calls cost more in call and slicing overhead
	// than the bytes they move, and a warm delta is mostly such blocks.
	// The last block is clamped to N (delta.Span).
	off := 0
	for _, b := range d.Blocks {
		lo, hi := delta.Span(b, d.Grain, d.N)
		for i := lo; i < hi; i++ {
			s.Tags[i] = d.Tags[off]
			s.Valid[i] = d.Valid[off]
			s.Dirty[i] = d.Dirty[off]
			s.LastUsed[i] = d.LastUsed[off]
			off++
		}
	}
	s.Stamp = d.Stamp
	return nil
}

// Delta captures the TLB translations touched since the snapshot point
// numbered since (see Cache.Delta).
func (t *TLB) Delta(a *delta.Arena, since uint64) (*Delta, error) { return t.inner.Delta(a, since) }

// Seq returns the TLB's current snapshot-chain link.
func (t *TLB) Seq() uint64 { return t.inner.Seq() }

// HierarchyDelta bundles the deltas of every structure in a Hierarchy —
// the dirty-block counterpart of HierarchyState.
type HierarchyDelta struct {
	IL1, DL1, L2 *Delta
	ITLB, DTLB   *Delta
}

// Delta captures all caches' and TLBs' dirty blocks since the snapshot
// point numbered since into arrays carved from a and clears their
// tracking. The hierarchy's
// structures advance their chains in lockstep (Snapshot and Delta drive
// all of them), so one sequence number covers the ensemble; a structure
// snapshotted out-of-band desynchronizes and surfaces here as an error.
func (h *Hierarchy) Delta(a *delta.Arena, since uint64) (*HierarchyDelta, error) {
	d := &HierarchyDelta{}
	var err error
	if d.IL1, err = h.IL1.Delta(a, since); err != nil {
		return nil, err
	}
	if d.DL1, err = h.DL1.Delta(a, since); err != nil {
		return nil, err
	}
	if d.L2, err = h.L2.Delta(a, since); err != nil {
		return nil, err
	}
	if d.ITLB, err = h.ITLB.Delta(a, since); err != nil {
		return nil, err
	}
	if d.DTLB, err = h.DTLB.Delta(a, since); err != nil {
		return nil, err
	}
	return d, nil
}

// Seq returns the hierarchy's current snapshot-chain link (the
// structures move in lockstep; IL1 is representative).
func (h *Hierarchy) Seq() uint64 { return h.IL1.Seq() }

// Bytes sums the payload sizes of the bundled deltas.
func (d *HierarchyDelta) Bytes() int {
	return d.IL1.Bytes() + d.DL1.Bytes() + d.L2.Bytes() + d.ITLB.Bytes() + d.DTLB.Bytes()
}

// Bytes sums the payload sizes of the bundled snapshots.
func (s *HierarchyState) Bytes() int {
	return s.IL1.Bytes() + s.DL1.Bytes() + s.L2.Bytes() + s.ITLB.Bytes() + s.DTLB.Bytes()
}

// Clone returns a deep copy of the hierarchy snapshot.
func (s *HierarchyState) Clone() *HierarchyState {
	return &HierarchyState{
		IL1:  s.IL1.Clone(),
		DL1:  s.DL1.Clone(),
		L2:   s.L2.Clone(),
		ITLB: s.ITLB.Clone(),
		DTLB: s.DTLB.Clone(),
	}
}

// CopyFrom makes s a deep copy of src in place (see State.CopyFrom); s
// must hold a State per structure, as a Clone or a Snapshot does.
//
//simlint:hotpath
func (s *HierarchyState) CopyFrom(src *HierarchyState) {
	s.IL1.CopyFrom(src.IL1)
	s.DL1.CopyFrom(src.DL1)
	s.L2.CopyFrom(src.L2)
	s.ITLB.CopyFrom(src.ITLB)
	s.DTLB.CopyFrom(src.DTLB)
}

// Apply patches every structure's snapshot forward by one hierarchy
// delta.
//
//simlint:hotpath
func (s *HierarchyState) Apply(d *HierarchyDelta) error {
	if err := s.IL1.Apply(d.IL1); err != nil {
		return err
	}
	if err := s.DL1.Apply(d.DL1); err != nil {
		return err
	}
	if err := s.L2.Apply(d.L2); err != nil {
		return err
	}
	if err := s.ITLB.Apply(d.ITLB); err != nil {
		return err
	}
	return s.DTLB.Apply(d.DTLB)
}
