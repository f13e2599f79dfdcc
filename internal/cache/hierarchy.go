package cache

import "repro/internal/cacheline"

// Latencies are the fixed access latencies of the hierarchy levels, in
// cycles (paper Table 3).
type Latencies struct {
	L1  int // L1 hit
	L2  int // L2 hit (total, on L1 miss)
	Mem int // main memory (total, on L2 miss)
	TLB int // TLB miss penalty (page walk)
}

// Hierarchy bundles the caches and TLBs of one machine and implements
// both the timed accesses used by the detailed core and the untimed
// warming used by functional warming.
type Hierarchy struct {
	_            cacheline.Pad
	IL1, DL1, L2 *Cache
	ITLB, DTLB   *TLB
	Lat          Latencies

	// Event counters used by the energy model; these count *accesses
	// issued to each level*, which differs from per-cache Stats only in
	// intent (they are reset per measurement by snapshotting).
	L2Accesses  uint64
	MemAccesses uint64

	_ cacheline.Pad
}

// Level identifies the hierarchy level that satisfied an access.
type Level int

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	}
	return "unknown"
}

// FetchAccess performs a timed instruction fetch of the block containing
// byte address addr and returns the access latency in cycles and the
// level that supplied the block.
//
//simlint:hotpath
func (h *Hierarchy) FetchAccess(addr uint64) (int, Level) {
	lat := h.Lat.L1
	if !h.ITLB.Access(addr) {
		lat += h.Lat.TLB
	}
	if h.IL1.Access(addr, false).Hit {
		return lat, LevelL1
	}
	h.L2Accesses++
	if h.L2.Access(addr, false).Hit {
		return lat - h.Lat.L1 + h.Lat.L2, LevelL2
	}
	h.MemAccesses++
	return lat - h.Lat.L1 + h.Lat.Mem, LevelMem
}

// DataAccess performs a timed data access (write=true for stores
// draining from the store buffer) and returns the latency in cycles and
// the supplying level.
//
//simlint:hotpath
func (h *Hierarchy) DataAccess(addr uint64, write bool) (int, Level) {
	lat := h.Lat.L1
	if !h.DTLB.Access(addr) {
		lat += h.Lat.TLB
	}
	res := h.DL1.Access(addr, write)
	if res.Hit {
		return lat, LevelL1
	}
	h.L2Accesses++
	// A dirty L1 victim writes back into L2; its timing is folded into
	// the miss latency (write-back buffers hide it), but the state
	// update matters for L2 contents and replacement.
	if res.WritebackDirty {
		h.L2.Access(res.VictimAddr, true)
	}
	l2res := h.L2.Access(addr, false)
	if l2res.Hit {
		return lat - h.Lat.L1 + h.Lat.L2, LevelL2
	}
	h.MemAccesses++
	return lat - h.Lat.L1 + h.Lat.Mem, LevelMem
}

// WarmFetch updates I-side state for one fetched instruction address
// without computing timing. Used by functional warming. The ITLB Touch
// is state-identical to the Access it shortcuts (see Cache.Touch); the
// IL1 gets none, as the warmer skips repeated fetches of one block
// (uarch.Warmer.Warm), so its hint never names the fetched block.
//
//simlint:hotpath
func (h *Hierarchy) WarmFetch(addr uint64) {
	h.ITLB.Touch(addr)
	if !h.IL1.Access(addr, false).Hit {
		h.L2.Access(addr, false)
	}
}

// WarmData updates D-side state for one executed load or store without
// computing timing. Used by functional warming. The state transitions
// (fills, LRU updates, dirty-victim writebacks into L2) are identical to
// the detailed model's; only their *ordering* differs, because warming
// replays the in-order instruction stream while the detailed core issues
// loads out of order and drains stores after commit. That ordering gap is
// the residual bias Table 5 of the paper measures.
//
//simlint:hotpath
func (h *Hierarchy) WarmData(addr uint64, write bool) {
	h.DTLB.Touch(addr)
	if h.DL1.Touch(addr, write) {
		return
	}
	res := h.DL1.Access(addr, write)
	if res.Hit {
		return
	}
	if res.WritebackDirty {
		h.L2.Access(res.VictimAddr, true)
	}
	h.L2.Access(addr, false)
}

// FlushAll invalidates every cache and TLB (cold state), keeping the
// statistics and event counters (see Cache.Flush).
//
//simlint:hotpath
func (h *Hierarchy) FlushAll() {
	h.IL1.Flush()
	h.DL1.Flush()
	h.L2.Flush()
	h.ITLB.Flush()
	h.DTLB.Flush()
}

// Reset returns every cache and TLB, and the hierarchy's own event
// counters, to their as-constructed state (see Cache.Reset).
//
//simlint:hotpath
func (h *Hierarchy) Reset() {
	h.IL1.Reset()
	h.DL1.Reset()
	h.L2.Reset()
	h.ITLB.Reset()
	h.DTLB.Reset()
	h.L2Accesses, h.MemAccesses = 0, 0
}

// ResetStats is Reset but for the clears a Restore overwrites.
//
//simlint:hotpath
func (h *Hierarchy) ResetStats() {
	h.IL1.ResetStats()
	h.DL1.ResetStats()
	h.L2.ResetStats()
	h.ITLB.inner.ResetStats()
	h.DTLB.inner.ResetStats()
	h.L2Accesses, h.MemAccesses = 0, 0
}
