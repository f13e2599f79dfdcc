// Package checkpoint turns a SMARTS sampling plan into a set of
// independently replayable per-unit launch states.
//
// A single functional sweep walks the benchmark's dynamic instruction
// stream once, in order. At each selected sampling unit's launch
// boundary (W instructions before the unit for warmed plans, the unit
// start otherwise) it captures a Unit snapshot: the architectural
// registers and PC, a copy-on-write image of memory, and — when the
// sweep runs with functional warming — the cache, TLB, and
// branch-predictor tag state accumulated by replaying the in-order
// stream (paper Section 3.1's "functional warming" made restorable, the
// organization the paper's checkpointed descendants such as TurboSMARTS
// adopt). Because each snapshot fully determines the subsequent
// detailed simulation of its unit, the units become independent jobs
// the parallel engine can run in any order on any number of workers
// with bit-identical results.
//
// # Streaming capture
//
// The sweep is a producer, not a pre-pass: CaptureStream hands each
// Unit to its caller the moment the unit's launch state is captured, so
// the parallel engine's workers begin detailed replay while the sweep
// is still walking the rest of the stream, and a run costs max(sweep,
// replay/workers). The sweep is itself two stages on two goroutines
// (pipeline.go): one interprets the stream and captures each unit's
// architectural state and memory, the other warms the structures from
// the interpreter's records and adds the warm state, so the sweep costs
// max(interpret, warm) per instruction. Capture is the buffered
// convenience wrapper that collects the stream into a Set.
//
// # Multi-offset capture
//
// Because a snapshot's contents depend only on the stream position —
// functional warming replays every instruction from the start
// regardless of which units are selected — one sweep can capture the
// launch boundaries of several systematic phase offsets j at once
// (Params.Offsets). Each offset's launch positions are computed exactly
// as its own single-offset sweep would compute them, so the units of
// Set.Offset(j) are bit-identical to a dedicated sweep at phase j. The
// bias experiments, which average over several phases, pay one sweep
// instead of one per phase.
//
// # Delta-encoded snapshots
//
// Neighbouring checkpoints along one sweep differ only in the cache
// lines, TLB entries, predictor counters, and memory pages touched
// between them, so copying full state per unit makes snapshot capture
// the dominant cost of dense plans. Every checkpointable structure
// therefore implements one shared snapshot/delta-chain contract
// (internal/delta): dirty tracking maintained inside the update fast
// paths (still zero allocations per instruction — dirty-block bitmaps
// in the warmed structures, a dirty-page journal in mem.Memory), full
// keyframes every Params.Keyframe-th captured unit, and sequence-
// checked deltas against the predecessor on the units between
// (uarch.Warmer.Delta for warm state, mem.Memory.Delta for memory).
// Consumers reconstruct launch states with a Materializer, the
// package's one chain walk: it keeps the last state it built in buffers
// of its own, so a consumer visiting units in stream order (a replay
// worker) pays per unit only the deltas since its previous visit, and
// falls back to copying the unit's keyframe into those buffers — plus
// at most Keyframe-1 delta applications — when it is not positioned on
// the unit's chain. Unit.Materialize / Set.Materialize are that
// fallback alone: a Materializer used once. Materializing only reads
// the shared snapshots, so any number of workers may do it at once, and
// materialized states are bit-identical to full snapshots; the encoding
// is invisible to every schedule. A store entry replayed as it is read
// (Store.Stream) is materialized by its reader instead, once per unit,
// from deltas decoded into buffers the next unit reuses.
//
// # On-disk store
//
// Store persists captured Sets, content-addressed by a key derived from
// the workload, the sampling geometry, and the warm-relevant machine
// configuration; see store.go. A functional sweep is then paid once per
// (workload, plan, hierarchy shape) and shared across machine configs
// that differ only in timing, width, or energy parameters. The file
// format persists the keyframe+delta structure directly — for memory as
// well as warm state — so dense entries shrink with the in-memory
// encoding, and seals every record with a CRC-32C of its own; an entry
// in any other format version is a miss. The entry files are the
// store's only state: with MaxBytes set, each commit evicts
// least-recently-used entries, recency being the file's mtime, which a
// hit refreshes.
package checkpoint

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/freelist"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
	"repro/internal/wallclock"
)

// Params selects the units to checkpoint. It mirrors the SMARTS plan
// fields (U, W, K, J) without importing the smarts package.
//
//simlint:keystruct KeyFor offsets
type Params struct {
	// U is the sampling unit size in instructions.
	U uint64
	// W is the detailed-warming length in instructions; each snapshot is
	// taken W instructions before its unit (clamped at stream start).
	W uint64
	// K is the systematic sampling interval in units, J the phase offset.
	K, J uint64
	// Offsets, when non-empty, selects several phase offsets captured in
	// the same sweep (J is then ignored). Every offset must be below K
	// and distinct. Set.Offset extracts one offset's units afterwards;
	// each is bit-identical to a dedicated single-offset sweep.
	Offsets []uint64
	// FunctionalWarm selects whether the sweep maintains cache/TLB/
	// predictor state and stores it in each snapshot. When false,
	// snapshots carry architectural state only and units launch with
	// cold microarchitectural state (plus their W detailed-warming
	// instructions).
	FunctionalWarm bool
	// Components restricts which structures functional warming maintains
	// (nil = all).
	Components *uarch.WarmComponents
	// MaxUnits, when nonzero, caps the number of captured units per
	// offset.
	MaxUnits int
	// Keyframe is the keyframe interval of delta-encoded snapshots:
	// every Keyframe-th captured unit (in capture order, across offsets)
	// carries a full snapshot — warm state and memory page table — and
	// the units between carry deltas against their predecessor
	// (dirty-block warm deltas, dirty-page memory deltas), shrinking
	// both the in-memory footprint of a dense sweep and the store
	// entries. 0 selects DefaultKeyframe; 1 disables deltas (every unit
	// a full snapshot). The encoding never changes the materialized
	// launch states — Materialize reproduces the full snapshot bit for
	// bit — so Keyframe is deliberately excluded from the store Key.
	// Cold captures delta-encode memory the same way (they have no warm
	// state). No option reaches it: the product always runs
	// DefaultKeyframe, and only tests set another interval.
	//simlint:nonkey encoding-only knob; materialized launch states are bit-identical
	Keyframe int
	// Resume, when non-nil, continues a previously journaled sweep of
	// this same plan instead of starting at instruction zero: the
	// boundary generator is replayed over the already-captured units
	// (each validated against the plan — a mismatched journal is an
	// error, never a wrong resume), the sweep CPU, memory, and warm
	// state are reconstructed from the last captured unit, and only new
	// units are emitted. The continued unit stream is bit-identical to
	// the tail of an uninterrupted sweep; the first resumed capture is a
	// fresh keyframe (an encoding-only divergence, like Keyframe itself
	// excluded from bit-identity and from the store Key).
	//simlint:nonkey resume point of the same sweep; the unit stream is bit-identical
	Resume *ResumeState
	// Recycle declares that the consumer keeps no emitted unit past its
	// launch, and calls Unit.Release on each once it has read the unit's
	// warm state for the last time: the sweep then carves each keyframe
	// interval's warm snapshots and deltas from an arena of a bounded,
	// process-wide free list instead of allocating them, and reuses the
	// arena once every unit of the interval has been released and the
	// sweep has emitted past it. Only a stream that nothing retains may
	// set it (engine's pool with no cache attached); units that live in a
	// Set, a cache or a multi-offset capture keep exactly sized arrays of
	// their own. Ignored on cold sweeps, which carry no warm state.
	//simlint:nonkey where the warm arrays live, not what they hold; units are bit-identical
	Recycle bool
}

// DefaultKeyframe is the keyframe interval used when Params.Keyframe is
// zero: one full snapshot per 64 captured units bounds any unit's
// materialization walk at 63 delta applications while keeping the full
// copies a small minority of a dense sweep's snapshot volume. (The
// interval grew from 16 when deltas moved to near-entry dirty grains
// and took over the memory half: with deltas several times cheaper,
// amortizing the keyframe further is the better trade — on the dense
// benchmark plan the keyframes would otherwise dominate the entry.)
const DefaultKeyframe = 64

// keyframe returns the effective keyframe interval.
func (p Params) keyframe() int {
	if p.Keyframe <= 0 {
		return DefaultKeyframe
	}
	return p.Keyframe
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.U == 0 {
		return fmt.Errorf("checkpoint: zero sampling unit size")
	}
	if p.K == 0 {
		return fmt.Errorf("checkpoint: zero sampling interval")
	}
	if p.J >= p.K {
		return fmt.Errorf("checkpoint: phase offset %d must be below interval %d", p.J, p.K)
	}
	if p.Keyframe < 0 {
		return fmt.Errorf("checkpoint: negative keyframe interval %d", p.Keyframe)
	}
	seen := make(map[uint64]bool, len(p.Offsets))
	for _, j := range p.Offsets {
		if j >= p.K {
			return fmt.Errorf("checkpoint: phase offset %d must be below interval %d", j, p.K)
		}
		if seen[j] {
			return fmt.Errorf("checkpoint: duplicate phase offset %d", j)
		}
		seen[j] = true
	}
	return nil
}

// offsets returns the effective phase offsets, sorted ascending.
func (p Params) offsets() []uint64 {
	if len(p.Offsets) == 0 {
		return []uint64{p.J}
	}
	js := append([]uint64(nil), p.Offsets...)
	sort.Slice(js, func(i, k int) bool { return js[i] < js[k] })
	return js
}

// WarmState is the microarchitectural half of a snapshot: everything
// functional warming maintains.
//
//simlint:unpadded read-only wrapper: its hot methods write only the states it points to
type WarmState struct {
	Hier *cache.HierarchyState
	Pred *bpred.State
}

// Clone returns a deep copy.
func (w *WarmState) Clone() *WarmState {
	return &WarmState{Hier: w.Hier.Clone(), Pred: w.Pred.Clone()}
}

// CopyFrom makes w a deep copy of src in place, reusing w's arrays (w
// must already hold a full state, as a Clone does) — how a Materializer
// refills its rolling state at a keyframe without allocating.
//
//simlint:hotpath
func (w *WarmState) CopyFrom(src *WarmState) {
	w.Hier.CopyFrom(src.Hier)
	w.Pred.CopyFrom(src.Pred)
}

// Apply patches the state forward by one warm delta.
//
//simlint:hotpath
func (w *WarmState) Apply(d *uarch.WarmDelta) error {
	if err := w.Hier.Apply(d.Hier); err != nil {
		return err
	}
	return w.Pred.Apply(d.Pred)
}

// Bytes returns the approximate in-memory payload size of the full
// snapshot.
func (w *WarmState) Bytes() int { return w.Hier.Bytes() + w.Pred.Bytes() }

// Unit is the launch state of one sampling unit: everything needed to
// simulate its W+U instructions in detail, independent of every other
// unit.
type Unit struct {
	// Index is the unit's position in the population (unit number).
	Index uint64
	// Start is the stream position of the unit's first instruction.
	Start uint64
	// LaunchAt is the stream position of the snapshot: Start-W clamped
	// to zero for warmed plans, Start otherwise. The detailed replay
	// runs Start-LaunchAt warming instructions, then U measured ones.
	LaunchAt uint64
	// Arch is the architectural register state at LaunchAt. It is tiny
	// and carried in full on every unit.
	Arch functional.ArchState
	// Mem is the memory image at LaunchAt (copy-on-write, shared with
	// neighbouring checkpoints). It is populated only on keyframe units;
	// nil when this unit's memory is delta-encoded.
	Mem *mem.Image
	// MemDelta, on delta-encoded units, is the dirty-page change from
	// Prev's memory to this unit's; Mem is then nil.
	MemDelta *mem.Delta
	// Warm is the functionally warmed cache/TLB/predictor state at
	// LaunchAt. It is populated only on keyframe units (and on every
	// unit when deltas are disabled); nil when the sweep ran without
	// functional warming or when this unit is delta-encoded. Consumers
	// that need the launch state use a Materializer, which handles every
	// encoding.
	Warm *WarmState
	// Delta, on delta-encoded units, is the dirty-block change from
	// Prev's warm state to this unit's; Warm is then nil.
	Delta *uarch.WarmDelta
	// Prev links a delta-encoded unit to its predecessor in capture
	// order — the chain a Materializer walks back to the nearest keyframe
	// (memory and warm deltas share the cadence, so one link serves
	// both). The links keep at most one keyframe interval of deltas
	// (plus the keyframe) alive per retained unit.
	Prev *Unit
	// HaveIBlock and LastIBlock are the sweep state at LaunchAt that the
	// snapshots do not hold, stamped by CaptureStream: the warmer's
	// consecutive-fetch dedup block (uarch.Warmer.FetchBlock; unset on
	// cold sweeps). With them every captured unit is a point a sweep can
	// resume from (resume.go): warm state restored without the block
	// would issue one extra warm fetch and skew the warmed LRU stamps off
	// the uninterrupted sweep.
	HaveIBlock bool
	LastIBlock uint64

	// arena is the recycled arena Warm or Delta was carved from, on units
	// of a recycling sweep until Release (see Params.Recycle).
	arena *warmArena
}

// WarmLen returns the number of detailed-warming instructions the
// unit's replay executes before measurement begins.
func (u *Unit) WarmLen() uint64 { return u.Start - u.LaunchAt }

// Launch is a unit's fully materialized launch state: the memory image
// and — for warmed sweeps — the cache/TLB/predictor state at LaunchAt.
// (The architectural registers live on the Unit itself; they are carried
// in full on every unit.) It belongs to the Materializer that built it:
// read-only (Memory.Restore/NewMemory and the structures' Restore only
// read it), and valid until that Materializer's next Materialize call.
// Its page table and warm arrays are private to the Materializer; the
// page arrays are the set's own, shared copy-on-write.
type Launch struct {
	Mem  *mem.Image
	Warm *WarmState // nil when the sweep ran without functional warming
}

// Materializer reconstructs launch states along a sweep's delta chains
// and remembers the last one it built, so a consumer visiting units in
// stream order pays for each unit only the deltas since its previous
// visit, applied to buffers it already owns, instead of a fresh clone
// of the keyframe plus the whole chain. It is the package's one chain
// walk: a replay worker's launcher keeps one, a streamed store read
// rolls one (advance), and Unit.Materialize is a Materializer used once
// from its zero (cold) position. The first two outlive their request:
// Reset forgets the position and keeps the buffers, so the next
// request's first keyframe is copied into arrays already sized for it.
//
// The rolling state is private: units and their snapshots are only ever
// read, so any number of Materializers (one per goroutine — a
// Materializer itself is not safe for concurrent use) may walk the same
// chains at once. The zero value is ready to use.
type Materializer struct {
	// at is the unit the rolling state equals (nil: none), hasWarm
	// whether its warm half does too (a cold unit leaves it stale).
	at      *Unit
	hasWarm bool
	mem     mem.Image
	warm    *WarmState // nil until the first warmed unit
	out     Launch
	chain   []*Unit // scratch: the deltas to apply, youngest first
}

// Reset forgets the position and every page of the chain the state
// was rolled along, keeping the warm arrays and the page table's
// capacity: the Materializer then holds nothing of the units it
// visited, and its next unit reseeds from a keyframe, as the zero
// value's first would, into buffers it already owns.
func (m *Materializer) Reset() {
	m.at, m.hasWarm = nil, false
	m.mem.CopyFrom(&mem.Image{})
	m.out = Launch{}
	clear(m.chain) // a failed walk leaves the units it collected
	m.chain = m.chain[:0]
}

// Materialize rolls the state to u and returns it (see Launch for the
// lifetime). It walks u's Prev links back to the nearest state already
// in hand — the unit the Materializer is positioned at, when u is
// downstream of it within one keyframe interval, else u's keyframe,
// which is first copied into the existing buffers — and applies the
// deltas from there up to u, memory and warm state alike. Any visiting
// order is correct; ascending stream order is the cheap one. A cold
// unit materializes with a nil Warm. A delta that fails to apply drops
// the rolling state, so the next call starts from a keyframe.
func (m *Materializer) Materialize(u *Unit) (*Launch, error) {
	warm := u.Warm != nil || u.Delta != nil
	m.chain = m.chain[:0]
	base := u
	for !m.holds(base, warm) && base.Mem == nil {
		if base.MemDelta == nil || base.Prev == nil || (warm && base.Delta == nil) {
			return nil, fmt.Errorf("checkpoint: unit %d: broken delta chain at unit %d", u.Index, base.Index)
		}
		m.chain = append(m.chain, base)
		base = base.Prev
	}
	if !m.holds(base, warm) {
		// Not positioned on u's chain: reseed from its keyframe.
		if err := m.seed(u, base, warm); err != nil {
			return nil, err
		}
	}
	m.at = nil // in flux until every delta has applied
	for i := len(m.chain) - 1; i >= 0; i-- {
		if err := m.apply(u, m.chain[i], warm); err != nil {
			return nil, err
		}
	}
	clear(m.chain) // the scratch must not keep visited units alive
	return m.land(u, warm), nil
}

// advance rolls the state forward to u, the next unit of a stream read
// in order — Materialize for a reader that decodes each unit's deltas
// into buffers it overwrites with the next unit's, so its units carry no
// Prev link to walk: a keyframe reseeds the state, and a delta unit
// applies to the state of the unit advance was last called with, which
// therefore must be u's predecessor.
func (m *Materializer) advance(u *Unit) (*Launch, error) {
	warm := u.Warm != nil || u.Delta != nil
	if u.Mem != nil {
		if err := m.seed(u, u, warm); err != nil {
			return nil, err
		}
	} else {
		if m.at == nil || (warm && !m.hasWarm) {
			return nil, fmt.Errorf("checkpoint: unit %d: broken delta chain", u.Index)
		}
		m.at = nil
		if err := m.apply(u, u, warm); err != nil {
			return nil, err
		}
	}
	return m.land(u, warm), nil
}

// seed copies keyframe unit base into the rolling state, on the way to
// materializing u.
func (m *Materializer) seed(u, base *Unit, warm bool) error {
	if warm && base.Warm == nil {
		return fmt.Errorf("checkpoint: unit %d: keyframe unit %d carries no warm state", u.Index, base.Index)
	}
	m.mem.CopyFrom(base.Mem)
	switch {
	case !warm:
	case m.warm == nil:
		m.warm = base.Warm.Clone()
	default:
		m.warm.CopyFrom(base.Warm)
	}
	return nil
}

// apply patches the rolling state by delta unit c's memory and warm
// deltas, on the way to materializing u. A failure leaves the state
// unpositioned (m.at nil), so the next call starts from a keyframe.
func (m *Materializer) apply(u, c *Unit, warm bool) error {
	if err := m.mem.Apply(c.MemDelta); err != nil {
		return fmt.Errorf("checkpoint: unit %d: materialize memory at unit %d: %w", u.Index, c.Index, err)
	}
	if warm {
		if err := m.warm.Apply(c.Delta); err != nil {
			return fmt.Errorf("checkpoint: unit %d: materialize at unit %d: %w", u.Index, c.Index, err)
		}
	}
	return nil
}

// land positions the rolling state at u and returns it as u's launch.
func (m *Materializer) land(u *Unit, warm bool) *Launch {
	m.at, m.hasWarm = u, warm
	m.out = Launch{Mem: &m.mem}
	if warm {
		m.out.Warm = m.warm
	}
	return &m.out
}

// holds reports whether the rolling state equals c's launch state, in
// the halves a warm (or cold) consumer needs.
func (m *Materializer) holds(c *Unit, warm bool) bool {
	return c == m.at && (m.hasWarm || !warm)
}

// Materialize reconstructs the unit's full launch state from its
// keyframe — a Materializer used once. Consumers that visit many units
// of one sweep keep a Materializer instead.
func (u *Unit) Materialize() (*Launch, error) {
	return new(Materializer).Materialize(u)
}

// WarmBytes returns the approximate in-memory warm payload the unit
// itself carries: the full snapshot for keyframes, the delta for
// delta-encoded units, zero for cold captures. Summed over a set it is
// the snapshotBytes the delta encoding exists to shrink.
func (u *Unit) WarmBytes() int {
	switch {
	case u.Warm != nil:
		return u.Warm.Bytes()
	case u.Delta != nil:
		return u.Delta.Bytes()
	}
	return 0
}

// MemTableBytes returns the unit's own memory bookkeeping payload — 16
// bytes (number + reference) per page the unit lists, i.e. the full
// page table on keyframes and only the dirty pages on delta units. Page
// contents are shared with neighbouring units and accounted separately
// (see Set.MemBytes).
func (u *Unit) MemTableBytes() int {
	switch {
	case u.Mem != nil:
		return 16 * u.Mem.PageCount()
	case u.MemDelta != nil:
		return 16 * u.MemDelta.Len()
	}
	return 0
}

// Summary describes one capture sweep's extent. Like the units, it is a
// function of the sweep's key alone; what the sweep measured of the
// wall clock is returned beside it, as a wallclock.Timing.
type Summary struct {
	// PopulationUnits is the benchmark length in units (the paper's N).
	PopulationUnits uint64
	// SweepInsts is the number of instructions the sweep executed
	// functionally (the engine's fast-forward cost).
	SweepInsts uint64
	// Captured is the number of units emitted — including, on a resumed
	// sweep, the units the journal already held (which are not
	// re-emitted; see Params.Resume).
	Captured int
	// ResumedAt is the journaled instruction position a resumed sweep
	// continued from (0 for a cold sweep): SweepInsts - ResumedAt is the
	// functional work this sweep actually executed.
	ResumedAt uint64
	// Complete reports that the sweep visited every selected boundary:
	// it was not cut short by the consumer (a false return from emit).
	// Reaching program end before the last boundary still counts as
	// complete — rerunning the sweep could not produce more units.
	Complete bool
}

// Set is the result of one capture sweep, collected in launch order.
type Set struct {
	// Units holds the captured launch states in stream order.
	Units []*Unit
	// K is the sampling interval the set was captured with; a unit's
	// phase offset is Index mod K.
	K uint64
	// PopulationUnits is the benchmark length in units (the paper's N).
	PopulationUnits uint64
	// SweepInsts is the number of instructions the sweep executed
	// functionally (the engine's fast-forward cost).
	SweepInsts uint64
}

// Materialize reconstructs the full launch state of the i-th unit in
// the set (in stream order), resolving delta chains through their
// keyframes; see Unit.Materialize.
func (s *Set) Materialize(i int) (*Launch, error) {
	if i < 0 || i >= len(s.Units) {
		return nil, fmt.Errorf("checkpoint: materialize unit %d of %d", i, len(s.Units))
	}
	return s.Units[i].Materialize()
}

// WarmBytes sums the warm payload carried by the set's units — full
// snapshots on keyframes plus deltas elsewhere.
func (s *Set) WarmBytes() int {
	total := 0
	for _, u := range s.Units {
		total += u.WarmBytes()
	}
	return total
}

// MemBytes approximates the in-memory (and, closely, on-disk) memory
// payload of the set: every distinct page array counted once — pages
// are shared copy-on-write along the stream, and the store writes each
// version once — plus each unit's page table or dirty-page delta
// bookkeeping. With delta encoding the per-unit tables collapse to the
// dirty pages, which is the quantity the memBytes/unit benchmark metric
// tracks.
func (s *Set) MemBytes() int {
	seen := make(map[*[mem.PageSize]byte]struct{})
	total := 0
	for _, u := range s.Units {
		total += u.MemTableBytes()
		visit := func(data *[mem.PageSize]byte) {
			if _, ok := seen[data]; !ok {
				seen[data] = struct{}{}
				total += mem.PageSize
			}
		}
		switch {
		case u.Mem != nil:
			u.Mem.VisitPages(func(_ uint64, data *[mem.PageSize]byte) { visit(data) })
		case u.MemDelta != nil:
			for _, p := range u.MemDelta.Pages {
				visit(p)
			}
		}
	}
	return total
}

// Offset returns the sub-set holding only phase offset j's units (in
// stream order, sharing the snapshots). The sweep accounting is carried
// over unchanged: the sweep was paid once for all offsets.
func (s *Set) Offset(j uint64) *Set {
	sub := &Set{
		K:               s.K,
		PopulationUnits: s.PopulationUnits,
		SweepInsts:      s.SweepInsts,
	}
	for _, u := range s.Units {
		if s.K != 0 && u.Index%s.K == j {
			sub.Units = append(sub.Units, u)
		}
	}
	return sub
}

// boundary is one selected launch point of the sweep.
type boundary struct {
	unit   uint64 // unit index in the population
	start  uint64 // stream position of the unit's first instruction
	launch uint64 // stream position of the snapshot
}

// boundaryGen merges the per-offset launch sequences into one
// nondecreasing stream of boundaries. Each offset's launches are
// computed exactly as its own single-offset sweep would: launch_i =
// max(start_i - W, launch_{i-1}) with launch_{-1} = 0, so overlapping
// warming windows shorten within an offset but never across offsets —
// the property that makes multi-offset capture bit-identical to
// separate sweeps.
type boundaryGen struct {
	p       Params
	pop     uint64
	offsets []uint64
	nextIdx []uint64 // next unit index per offset
	prev    []uint64 // previous launch per offset
	emitted []int    // units emitted per offset (for MaxUnits)
}

func newBoundaryGen(p Params, pop uint64) *boundaryGen {
	offs := p.offsets()
	g := &boundaryGen{
		p:       p,
		pop:     pop,
		offsets: offs,
		nextIdx: append([]uint64(nil), offs...),
		prev:    make([]uint64, len(offs)),
		emitted: make([]int, len(offs)),
	}
	return g
}

// peek computes offset o's next boundary without committing it.
func (g *boundaryGen) peek(o int) (boundary, bool) {
	if g.nextIdx[o] >= g.pop {
		return boundary{}, false
	}
	if g.p.MaxUnits > 0 && g.emitted[o] >= g.p.MaxUnits {
		return boundary{}, false
	}
	start := g.nextIdx[o] * g.p.U
	launch := start
	if g.p.W > 0 {
		if g.p.W > start {
			launch = 0
		} else {
			launch = start - g.p.W
		}
	}
	if launch < g.prev[o] {
		launch = g.prev[o] // units closer together than W: shorten warming
	}
	return boundary{unit: g.nextIdx[o], start: start, launch: launch}, true
}

// next returns the globally earliest pending boundary (ties broken by
// unit index) and advances past it.
func (g *boundaryGen) next() (boundary, bool) {
	best := -1
	var bb boundary
	for o := range g.offsets {
		b, ok := g.peek(o)
		if !ok {
			continue
		}
		if best < 0 || b.launch < bb.launch || (b.launch == bb.launch && b.unit < bb.unit) {
			best, bb = o, b
		}
	}
	if best < 0 {
		return boundary{}, false
	}
	g.prev[best] = bb.launch
	g.nextIdx[best] += g.p.K
	g.emitted[best]++
	return bb, true
}

// FFChunk bounds how many instructions a fast-forward loop runs
// between cancellation checks — in the serial loop of internal/smarts,
// and in the capture sweep's interpreter stage, where it bounds every
// batch's span, warmed or cold: a batch is handed over when its
// batchRecs records are full or it spans FFChunk instructions, and a
// cold sweep, which records nothing, cuts at this length alone. At
// functional-warming speed (~20ns/inst) one chunk is a couple of
// milliseconds, so a cancelled context stops the sweep promptly even
// inside a long fast-forward gap, while the per-chunk check cost is
// amortized to nothing.
const FFChunk = 1 << 16

// CaptureStream runs the functional sweep over prog, calling emit for
// each selected unit's launch state the moment it is captured, in
// nondecreasing launch order. emit returning false stops the sweep
// early (Summary.Complete will be false); the returned Summary always
// describes what actually ran, and the Timing what this call measured
// of it (Sweep, WarmWait, InterpPark). cfg sizes the warmed structures;
// it is only consulted when p.FunctionalWarm is set.
//
// The sweep runs as two stages (see pipeline.go): a helper goroutine
// interprets the stream and captures each unit's architectural state
// and memory, and the calling goroutine warms the structures from the
// interpreter's records, takes the warm state at each launch point,
// stamps the unit with the sweep state there and calls emit — so a
// sweep costs max(interpret, warm) per instruction, the units are
// bit-identical to interpreting and warming in turn, and the helper has
// returned before CaptureStream does.
//
// The sweep honors ctx: cancellation (or deadline expiry) is observed
// after every emitted unit and between the interpreter's batches (each
// at most FFChunk instructions); the sweep then stops and
// returns ctx.Err() with Summary.Complete false, so a store writer
// layered on the stream aborts instead of committing a partial entry.
//
// The consumer owns each emitted Unit. Snapshots share memory pages
// copy-on-write with their neighbours, so holding one unit alive does
// not pin the whole stream's footprint. Under p.Recycle the consumer
// owns a unit only until it releases it (Unit.Release): the unit's warm
// state is carved from its keyframe interval's arena, which the sweep
// holds until emit has returned for the interval's last unit, so emit
// may read every unit of the interval — and a journal may encode it —
// before returning.
func CaptureStream(ctx context.Context, prog *program.Program, cfg uarch.Config, p Params, emit func(*Unit) bool) (sum *Summary, t wallclock.Timing, err error) {
	if err := p.Validate(); err != nil {
		return nil, t, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	cpu := functional.New(prog)
	var warmer *uarch.Warmer
	var machine *uarch.Machine
	if p.FunctionalWarm {
		rig := rigs.Get(cfg)
		defer rig.put(cfg)
		machine, warmer = rig.machine, rig.warmer
		if p.Components != nil {
			warmer.Components = *p.Components
		}
	}

	sum = &Summary{PopulationUnits: prog.Length / p.U}
	start := wallclock.Now()
	gen := newBoundaryGen(p, sum.PopulationUnits)

	// Delta-encoded snapshots: every kf-th captured unit is a full
	// keyframe, the units between carry deltas chained off it — dirty
	// memory pages always (taken by the interpreter stage, which sets Mem
	// on keyframes), dirty warm blocks when warming (taken by the warm
	// stage below; see Params.Keyframe). A resumed sweep's chain goes on
	// from the last journaled unit.
	in := &interpreter{gen: gen, record: warmer != nil, blockBits: cfg.IL1.BlockBits, kf: p.keyframe()}
	var lastSeq uint64 // the warmer's snapshot sequence number
	if rs := p.Resume; rs != nil && len(rs.Units) > 0 {
		if cpu, err = resumeSweep(prog, machine, warmer, gen, rs); err != nil {
			return nil, t, err
		}
		in.prev = rs.Units[len(rs.Units)-1]
		in.lastMem = cpu.Mem.Seq()
		if warmer != nil {
			lastSeq = warmer.Seq()
		}
		sum.Captured = len(rs.Units)
		sum.ResumedAt = in.prev.LaunchAt
	}
	in.cpu, in.captured = cpu, sum.Captured

	// The interpreter stage runs on its own goroutine until the stream
	// ends or the warm stage below stops it; it has returned before
	// CaptureStream does.
	r := rings.Get(warmer != nil)
	pos := cpu.Count // the position the warm stage has reached: what the Summary reports
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.run(r)
	}()
	defer func() {
		r.stop()
		<-done
		t.WarmWait, t.InterpPark = r.warmWait, r.interpPark
		t.Sweep = wallclock.Since(start)
		r.reset()
		rings.Put(warmer != nil, r)
	}()

	finish := func(err error) (*Summary, wallclock.Timing, error) {
		sum.SweepInsts = pos
		return sum, t, err
	}
	cancelled := func() bool {
		if ctx.Err() == nil {
			return false
		}
		sum.Complete = false
		return true
	}

	// The warm stage. arena is the current keyframe interval's, on a
	// recycling sweep: the sweep's hold on it is dropped when the next
	// keyframe opens another or the sweep ends.
	var arena *warmArena
	defer func() {
		if arena != nil {
			arena.release()
		}
	}()
	sum.Complete = true
	for {
		if cancelled() {
			return finish(ctx.Err())
		}
		b := r.take()
		recs, warmed := b.recs[:b.n], 0
		for _, l := range b.launches {
			u := l.u
			pos = u.LaunchAt
			if warmer != nil {
				warmer.Warm(recs[warmed:l.at])
				warmed = l.at
				if u.Mem != nil {
					if p.Recycle {
						// Every unit of the last interval has been pushed. The
						// next arena is taken while the sweep still holds the
						// last, so consecutive intervals alternate between two
						// arenas whatever the replay schedule, and each is
						// sized by the intervals it serves (see release).
						next := openArena()
						if arena != nil {
							arena.release()
						}
						arena = next
					}
					snap := warmer.Snapshot(arena.slabs())
					u.Warm = &WarmState{Hier: snap.Hier, Pred: snap.Pred}
					lastSeq = snap.Seq
				} else {
					d, err := warmer.Delta(arena.slabs(), lastSeq)
					if err != nil {
						return finish(fmt.Errorf("checkpoint: unit %d: %w", u.Index, err))
					}
					u.Delta = d
					lastSeq = d.Seq
				}
				if arena != nil {
					arena.hold(u)
				}
			}
			// The stream position is the unit's launch point: the unit
			// carries what a sweep resumed from it needs beyond its
			// snapshots.
			if warmer != nil {
				u.LastIBlock, u.HaveIBlock = warmer.FetchBlock()
			}
			sum.Captured++
			if !emit(u) {
				sum.Complete = false
				return finish(nil)
			}
			if cancelled() {
				return finish(ctx.Err())
			}
		}
		if warmer != nil {
			// A batch that ends in a fault still warms what executed, so the
			// warm state never falls behind the stream position.
			warmer.Warm(recs[warmed:])
		}
		pos = b.end
		if b.last {
			return finish(b.err)
		}
		r.release()
	}
}

// sweepRig is a warmed sweep's machine and the warmer bound to it.
type sweepRig struct {
	machine *uarch.Machine
	warmer  *uarch.Warmer
}

// rigs keeps the rigs of ended sweeps by machine configuration, so a
// warmed sweep's caches, TLBs and predictor are built once per process
// and configuration rather than once per sweep.
var rigs = freelist.New("sweep rig", func(cfg uarch.Config) *sweepRig {
	m := uarch.NewMachine(cfg)
	return &sweepRig{machine: m, warmer: uarch.NewWarmer(m, cfg)}
})

// put resets the rig to a new one's state and returns it to rigs. The
// units a sweep emitted hold copies of the warm state, never the
// machine's own arrays, so nothing of the sweep stays reachable.
func (r *sweepRig) put(cfg uarch.Config) {
	r.machine.Reset()
	r.warmer.Reset()
	rigs.Put(cfg, r)
}

// Capture runs the functional sweep over prog and collects every
// selected unit's launch state into a Set. It is CaptureStream with a
// buffering consumer.
func Capture(ctx context.Context, prog *program.Program, cfg uarch.Config, p Params) (*Set, error) {
	set := &Set{K: p.K}
	sum, _, err := CaptureStream(ctx, prog, cfg, p, func(u *Unit) bool {
		set.Units = append(set.Units, u)
		return true
	})
	if err != nil {
		return nil, err
	}
	set.PopulationUnits = sum.PopulationUnits
	set.SweepInsts = sum.SweepInsts
	return set, nil
}
