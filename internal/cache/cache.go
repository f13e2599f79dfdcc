// Package cache models the memory hierarchy: set-associative write-back
// caches with true-LRU replacement, translation lookaside buffers, miss
// status holding registers (MSHRs), and the committed-store buffer.
//
// Every structure exposes two faces:
//
//   - an untimed state-update face (Touch/WarmAccess) used by functional
//     warming, which replays the in-order instruction stream into the
//     structure without computing latencies; and
//   - a timed face (Access with latency results) used by the detailed
//     model.
//
// The same instance is shared across simulation modes, which is exactly
// the mechanism SMARTS's functional warming relies on: state accumulated
// during fast-forwarding is what the next sampling unit's detailed
// simulation observes.
package cache

import (
	"fmt"

	"repro/internal/cacheline"
	"repro/internal/delta"
)

// Config describes one cache level. The geometry fields are folded
// into checkpoint.WarmSignature: two configs with equal geometry warm
// identically from one stream.
//
//simlint:keystruct WarmSignature
type Config struct {
	// Name is used in stats output ("L1D" etc.).
	//simlint:nonkey display label; never observed by the sweep
	Name string
	// Sets and Ways define the organization. Sets must be a power of two.
	Sets, Ways int
	// BlockBits is log2 of the block size in bytes.
	BlockBits uint
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets %d must be a power of two", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.BlockBits == 0 || c.BlockBits > 12 {
		return fmt.Errorf("cache %s: block bits %d out of range", c.Name, c.BlockBits)
	}
	return nil
}

// SizeBytes returns the total data capacity.
func (c Config) SizeBytes() uint64 {
	return uint64(c.Sets) * uint64(c.Ways) << c.BlockBits
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one level of set-associative cache with true LRU.
type Cache struct {
	_        cacheline.Pad
	cfg      Config
	setMask  uint64
	tags     []uint64 // sets*ways
	valid    []bool
	dirty    []bool
	lastUsed []uint64 // LRU stamps
	stamp    uint64

	// snapDirty is the snapshot dirty-tracking bitmap (one bit per
	// GrainShift-granularity block of the tag/valid/dirty/lastUsed
	// arrays), and chain the snapshot sequence — together the cache's
	// implementation of the delta contract (see delta.go). Marking is
	// two shifts and an OR, cheap enough for the warm fast paths.
	snapDirty delta.Bitmap
	chain     delta.Chain

	// lastIdx is the way index of the most recently hit or filled block —
	// a hint for Touch's warm-hit fast path. It is revalidated against
	// the live tag/valid arrays on every use, so it never needs
	// invalidation (Flush, Restore, and evictions simply make the
	// revalidation fail) and is deliberately excluded from snapshots.
	// It is an int32 (entry counts stay far below 2^31) so that it and
	// hintMarked share one word.
	lastIdx int32
	// hintMarked records that lastIdx's block is marked in snapDirty:
	// the Access that sets the hint marks it, so Touch's hits on the hint
	// skip the bitmap read-modify-write while it holds. Snapshot and
	// Delta, which clear the bitmap, clear it; Touch then marks on every
	// hit until the next Access sets it again (setting it in Touch too
	// would push Touch past the inlining budget). Restore only adds
	// marks, so it stays true across it; Flush resets it with the hint.
	hintMarked bool

	// Stats accumulates over the cache's lifetime. Callers snapshot and
	// diff it for per-unit measurements.
	Stats Stats

	_ cacheline.Pad
}

// New builds a cache; the configuration must be valid.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets * cfg.Ways
	return &Cache{
		cfg:      cfg,
		setMask:  uint64(cfg.Sets - 1),
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		dirty:    make([]bool, n),
		lastUsed: make([]uint64, n),
		// Start all-dirty: the first snapshot after construction must be
		// a full one (delta consumers always key off a prior snapshot).
		snapDirty: delta.NewBitmap(n, GrainShift),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// index splits addr into set base index and tag.
//
//simlint:hotpath
func (c *Cache) index(addr uint64) (int, uint64) {
	block := addr >> c.cfg.BlockBits
	set := int(block & c.setMask)
	tag := block >> 0 // full block number as tag; set bits are redundant but harmless
	return set * c.cfg.Ways, tag
}

// AccessResult describes the outcome of a timed access.
type AccessResult struct {
	Hit bool
	// WritebackDirty reports that the victim block was dirty and a
	// writeback to the next level is required.
	WritebackDirty bool
	// VictimAddr is the byte address of the evicted block when
	// WritebackDirty is set.
	VictimAddr uint64
}

// Access performs one access, updating replacement and contents.
// write marks the block dirty on hit or after fill (write-allocate).
//
//simlint:hotpath
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.Stats.Accesses++
	c.stamp++
	base, tag := c.index(addr)
	ways := c.cfg.Ways
	// Hit check.
	for w := 0; w < ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			c.lastUsed[i] = c.stamp
			if write {
				c.dirty[i] = true
			}
			c.lastIdx = int32(i)
			c.snapDirty.Mark(i)
			c.hintMarked = true
			return AccessResult{Hit: true}
		}
	}
	// Miss: choose victim (invalid first, else LRU).
	c.Stats.Misses++
	victim := base
	var oldest uint64 = ^uint64(0)
	found := false
	for w := 0; w < ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			found = true
			break
		}
		if c.lastUsed[i] < oldest {
			oldest = c.lastUsed[i]
			victim = i
		}
	}
	res := AccessResult{}
	if !found && c.valid[victim] {
		c.Stats.Evictions++
		if c.dirty[victim] {
			c.Stats.Writebacks++
			res.WritebackDirty = true
			res.VictimAddr = c.tags[victim] << c.cfg.BlockBits
		}
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.dirty[victim] = write
	c.lastUsed[victim] = c.stamp
	c.lastIdx = int32(victim)
	c.snapDirty.Mark(victim)
	c.hintMarked = true
	return res
}

// Touch attempts the warm-hit fast path used by functional warming: when
// the most recently used block (the lastIdx hint) is still resident and
// matches addr, it applies exactly the state updates a hitting Access
// would (access count, LRU stamp, dirty bit) and returns true. When the
// hint does not match it does nothing and returns false; the caller
// falls back to the full Access. Because the hint is revalidated against
// the live arrays, Touch-then-Access is state- and stats-identical to a
// plain Access for every access sequence.
//
// Touch is small enough for the compiler to inline into the warming
// loop, which is what makes the in-order sweep's dominant case — a
// repeated hit on the same hot block — cheap: the hint's block is
// usually still marked dirty from the Access that set it, so the hit
// only bumps the stamp and the counter.
//
//simlint:hotpath
func (c *Cache) Touch(addr uint64, write bool) bool {
	i := int(c.lastIdx)
	if c.valid[i] && c.tags[i] == addr>>c.cfg.BlockBits {
		c.Stats.Accesses++
		c.stamp++
		c.lastUsed[i] = c.stamp
		if write {
			c.dirty[i] = true
		}
		if !c.hintMarked {
			c.snapDirty.Mark(i)
		}
		return true
	}
	return false
}

// Probe reports whether addr currently hits, without updating any state.
//
//simlint:hotpath
func (c *Cache) Probe(addr uint64) bool {
	base, tag := c.index(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Flush empties the cache to exactly its as-constructed contents — tag
// arrays, valid/dirty bits, LRU stamps and the LRU clock all zero, the
// warm-hit hint back at entry 0 — so a flushed cache snapshots to the
// same bytes as a new one and behaves identically from there on. It
// differs from Reset only in what it keeps: the statistics and the
// snapshot-chain position, so a delta chain in progress continues across
// a Flush (everything is marked dirty) and callers that diff Stats see
// no discontinuity.
//
//simlint:hotpath
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.valid)
	clear(c.dirty)
	clear(c.lastUsed)
	c.stamp = 0
	c.lastIdx = 0
	c.snapDirty.MarkAll()
	c.hintMarked = false
}

// Reset returns the cache to exactly the state New built: Flush plus
// zeroed statistics and a snapshot chain that has seen no snapshot. A
// reset cache is indistinguishable from a new one — Snapshot bytes,
// Stats, and the outcome of every later access — which is what lets a
// replay worker reuse one machine across sampling units.
//
//simlint:hotpath
func (c *Cache) Reset() {
	c.Flush()
	c.ResetStats()
}

// ResetStats is Reset but for Flush's clears, which a Restore overwrites:
// ResetStats then Restore leaves the cache Reset then Restore would.
//
//simlint:hotpath
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	c.chain = delta.Chain{}
	c.lastIdx = 0
	c.hintMarked = false
}

// Occupancy returns the number of valid blocks.
func (c *Cache) Occupancy() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
