package cache

import (
	"fmt"

	"repro/internal/delta"
)

// State is a serializable snapshot of one cache's content-bearing state:
// the tag arrays, valid/dirty bits, and LRU stamps. Statistics are
// deliberately excluded — a restored cache starts its own counts — so a
// snapshot captures exactly what functional warming accumulates and a
// sampling unit's detailed simulation observes.
//
//simlint:unpadded a launch-state snapshot: a launch writes its scalars once per unit, never per instruction
type State struct {
	Tags     []uint64
	Valid    []bool
	Dirty    []bool
	LastUsed []uint64
	Stamp    uint64
}

// Snapshot captures the cache's current contents into arrays carved
// from a (fresh ones for a nil a). It is the keyframe of the cache's
// delta chain: dirty tracking restarts here, so the next Delta carries
// exactly the blocks touched from this point on.
func (c *Cache) Snapshot(a *delta.Arena) *State {
	s := &State{
		Tags:     delta.Make[uint64](a, len(c.tags)),
		Valid:    delta.Make[bool](a, len(c.valid)),
		Dirty:    delta.Make[bool](a, len(c.dirty)),
		LastUsed: delta.Make[uint64](a, len(c.lastUsed)),
		Stamp:    c.stamp,
	}
	copy(s.Tags, c.tags)
	copy(s.Valid, c.valid)
	copy(s.Dirty, c.dirty)
	copy(s.LastUsed, c.lastUsed)
	c.snapDirty.Reset()
	c.hintMarked = false
	c.chain.Keyframe()
	return s
}

// Restore overwrites the cache's contents with a snapshot taken from a
// cache of identical geometry. Stats are left untouched.
//
//simlint:hotpath
func (c *Cache) Restore(s *State) error {
	if len(s.Tags) != len(c.tags) {
		//simlint:coldpath geometry mismatch; a configuration error, never taken on a replaying worker
		return fmt.Errorf("cache %s: snapshot geometry %d blocks, cache has %d",
			c.cfg.Name, len(s.Tags), len(c.tags))
	}
	copy(c.tags, s.Tags)
	copy(c.valid, s.Valid)
	copy(c.dirty, s.Dirty)
	copy(c.lastUsed, s.LastUsed)
	c.stamp = s.Stamp
	c.snapDirty.MarkAll() // every entry may differ from the last delta baseline
	return nil
}

// Snapshot captures the TLB's translations into arrays carved from a.
func (t *TLB) Snapshot(a *delta.Arena) *State { return t.inner.Snapshot(a) }

// Restore overwrites the TLB's translations from a snapshot.
//
//simlint:hotpath
func (t *TLB) Restore(s *State) error { return t.inner.Restore(s) }

// HierarchyState bundles the snapshots of every structure in a
// Hierarchy — the cache and TLB tag arrays a SMARTS checkpoint carries.
//
//simlint:unpadded read-only wrapper: its hot methods write only the States it points to
type HierarchyState struct {
	IL1, DL1, L2 *State
	ITLB, DTLB   *State
}

// Snapshot captures all caches and TLBs of the hierarchy into arrays
// carved from a.
func (h *Hierarchy) Snapshot(a *delta.Arena) *HierarchyState {
	return &HierarchyState{
		IL1:  h.IL1.Snapshot(a),
		DL1:  h.DL1.Snapshot(a),
		L2:   h.L2.Snapshot(a),
		ITLB: h.ITLB.Snapshot(a),
		DTLB: h.DTLB.Snapshot(a),
	}
}

// Restore overwrites all caches and TLBs from a snapshot taken on a
// hierarchy of identical geometry.
//
//simlint:hotpath
func (h *Hierarchy) Restore(s *HierarchyState) error {
	if err := h.IL1.Restore(s.IL1); err != nil {
		return err
	}
	if err := h.DL1.Restore(s.DL1); err != nil {
		return err
	}
	if err := h.L2.Restore(s.L2); err != nil {
		return err
	}
	if err := h.ITLB.Restore(s.ITLB); err != nil {
		return err
	}
	return h.DTLB.Restore(s.DTLB)
}
