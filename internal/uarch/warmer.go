package uarch

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/delta"
	"repro/internal/functional"
	"repro/internal/isa"
)

// The warmer implements the shared snapshot/delta contract for the
// warmed ensemble (hierarchy + predictor).
var _ delta.Source[*WarmSnapshot, *WarmDelta] = (*Warmer)(nil)

// WarmComponents selects which microarchitectural structures functional
// warming maintains. The paper's functional warming maintains all of
// them (its sim-cache + sim-bpred analogue); partial selections support
// the ablation experiment asking which state actually carries the bias.
type WarmComponents struct {
	ICache    bool
	DCache    bool // includes the L2 and TLBs on the data path
	Predictor bool
}

// AllComponents is the paper's full functional warming.
var AllComponents = WarmComponents{ICache: true, DCache: true, Predictor: true}

// Warmer replays the committed instruction stream into a machine's
// warmable structures (caches, TLBs, branch predictor) — the functional
// warming mode. It lives here, beside the Machine whose structures it
// drives, so both the SMARTS controller and the checkpoint capture
// sweep share the exact warming semantics.
//
//simlint:unpadded one per sweep, an 8 KB object for its inline record batch; a cold sweep's address dump finds no other goroutine's hot fields on its lines
type Warmer struct {
	machine    *Machine
	blockBits  uint
	lastIBlock uint64
	haveIBlock bool
	// ring is the batch buffer ForwardBatch hands to the CPU's batch
	// interpreter: one RunDyn call fills it with up to warmBatch dynamic
	// records, and Warm replays them into the structures —
	// amortizing interpreter dispatch and warming dispatch over the
	// batch instead of alternating per instruction. Warmers are few (one
	// per sweep or serial loop), so the buffer is kept inline rather than
	// allocated per call.
	ring [warmBatch]functional.DynRec

	// chain numbers the snapshots taken through Snapshot/Delta so delta
	// chains can assert they extend the latest baseline. The warmed
	// structures each keep their own chain, advanced in lockstep by the
	// warmer; a structure snapshotted out-of-band desynchronizes and the
	// next Delta fails rather than silently dropping updates.
	chain delta.Chain

	// Components selects the warmed structures; zero value warms nothing,
	// NewWarmer initializes it to AllComponents.
	Components WarmComponents
}

// NewWarmer builds a full warmer bound to m's structures.
func NewWarmer(m *Machine, cfg Config) *Warmer {
	return &Warmer{machine: m, blockBits: cfg.IL1.BlockBits, Components: AllComponents}
}

// Reset returns the warmer to the state NewWarmer left it in — no fetch
// block warmed, a snapshot chain that has seen no snapshot, every
// component selected, an empty record batch — so one warmer serves one
// sweep after another. Its machine is the caller's to reset
// (Machine.Reset); together the two equal a new pair.
func (w *Warmer) Reset() {
	w.lastIBlock, w.haveIBlock = 0, false
	w.chain = delta.Chain{}
	w.Components = AllComponents
	clear(w.ring[:])
}

// WarmSnapshot is a full snapshot of the warmed structures — cache/TLB
// hierarchy and branch predictor — tagged with its sequence number, the
// baseline identity subsequent Delta calls key off.
type WarmSnapshot struct {
	Hier *cache.HierarchyState
	Pred *bpred.State
	// Seq identifies this snapshot within the warmer's chain; pass it to
	// Delta to capture the changes since this point.
	Seq uint64
}

// WarmDelta is a dirty-block delta between two consecutive warm
// snapshots: applying it to (a copy of) snapshot Since yields snapshot
// Seq exactly.
type WarmDelta struct {
	Hier *cache.HierarchyDelta
	Pred *bpred.Delta
	// Since is the sequence number of the baseline snapshot, Seq the
	// number this delta advances the chain to.
	Since, Seq uint64
}

// Bytes returns the approximate in-memory payload size of the delta.
func (d *WarmDelta) Bytes() int { return d.Hier.Bytes() + d.Pred.Bytes() }

// Snapshot captures the machine's full warm state into arrays carved
// from a (fresh ones for a nil a) and resets dirty tracking, making this
// snapshot the baseline for the next Delta — the keyframe of a delta
// chain.
func (w *Warmer) Snapshot(a *delta.Arena) *WarmSnapshot {
	return &WarmSnapshot{
		Hier: w.machine.Hier.Snapshot(a),
		Pred: w.machine.Pred.Snapshot(a),
		Seq:  w.chain.Keyframe(),
	}
}

// Seq returns the warmer's current snapshot-chain link (0 before the
// first Snapshot).
func (w *Warmer) Seq() uint64 { return w.chain.Seq() }

// Delta captures only the state dirtied since the snapshot numbered
// since, which must be the warmer's most recent snapshot (full or
// delta), into arrays carved from a — deltas chain strictly; skipping a
// link would silently drop updates, so that is an error (enforced here
// and again by each structure's own chain).
func (w *Warmer) Delta(a *delta.Arena, since uint64) (*WarmDelta, error) {
	seq, err := w.chain.Next(since)
	if err != nil {
		return nil, fmt.Errorf("uarch: %w", err)
	}
	hier, err := w.machine.Hier.Delta(a, since)
	if err != nil {
		return nil, fmt.Errorf("uarch: %w", err)
	}
	pred, err := w.machine.Pred.Delta(a, since)
	if err != nil {
		return nil, fmt.Errorf("uarch: %w", err)
	}
	return &WarmDelta{Hier: hier, Pred: pred, Since: since, Seq: seq}, nil
}

// FetchBlock returns the I-cache block of the last warmed fetch and
// whether one exists — the dedup state Warm keys consecutive-fetch
// suppression off. A resumable sweep journals it alongside the warm
// snapshot: restoring warm state without it would re-warm the first
// fetched block after resume and skew the LRU stamps off the
// uninterrupted sweep.
func (w *Warmer) FetchBlock() (block uint64, ok bool) {
	return w.lastIBlock, w.haveIBlock
}

// SetFetchBlock restores the fetch-dedup state captured by FetchBlock.
func (w *Warmer) SetFetchBlock(block uint64, ok bool) {
	w.lastIBlock, w.haveIBlock = block, ok
}

// warmBatch is the ForwardBatch ring size: large enough to amortize
// the per-batch interpreter entry/exit and warming-loop setup to
// nothing, small enough (32 bytes per record) to stay resident in L1
// while the warming loop re-reads what the interpreter just wrote.
const warmBatch = 256

// ForwardBatch advances the CPU by up to n instructions with functional
// warming, in batches: the CPU's batch interpreter (RunDyn) fills the
// warmer's record ring, then Warm replays the ring into the selected
// structures. Warming consumes only the recorded outcomes (fetch PCs,
// effective addresses, branch results), never live architectural state,
// so deferring it by a batch leaves the warmed state bit-identical to
// instruction-at-a-time warming. A halt inside the batch warms every
// record through the Halt itself and returns nil; a fault warms the
// records executed before it and returns the error, so warm state never
// falls behind cpu.Count.
//
//simlint:hotpath
func (w *Warmer) ForwardBatch(cpu *functional.CPU, n uint64) error {
	for n > 0 {
		batch := min(n, warmBatch)
		k, err := cpu.RunDyn(w.ring[:batch], batch)
		w.Warm(w.ring[:k])
		if err != nil || k == 0 || cpu.Halted {
			return err // k == 0: already halted
		}
		n -= k
	}
	return nil
}

// Warm replays recorded dynamic instructions, in order, into the
// selected structures: an I-cache fetch per new fetch block (consecutive
// fetches of one block warm it once), a D-cache access per load and
// store, a predictor warm per control instruction — each record's
// pre-decoded class deciding which, never re-derived per instruction. It
// is the one warming loop: ForwardBatch runs it behind the interpreter
// on one goroutine, and the checkpoint capture sweep runs it on the
// sweep goroutine over records another goroutine interpreted. Both are
// bit-identical to warming instruction by instruction, because the
// records are all warming reads.
//
//simlint:hotpath
func (w *Warmer) Warm(recs []functional.DynRec) {
	h, p := w.machine.Hier, w.machine.Pred
	icache, dcache, pred := w.Components.ICache, w.Components.DCache, w.Components.Predictor
	blockBits := w.blockBits
	// noBlock stands for "no fetch warmed yet": no fetch block reaches
	// it, since PCs index a code slice.
	const noBlock = ^uint64(0)
	last := uint64(noBlock)
	if w.haveIBlock {
		last = w.lastIBlock
	}
	for i := range recs {
		d := &recs[i]
		if icache {
			if iblock := d.PC * isa.InstBytes >> blockBits; iblock != last {
				h.WarmFetch(d.PC * isa.InstBytes)
				last = iblock
			}
		}
		switch d.Class {
		case isa.ClassLoad:
			if dcache {
				h.WarmData(d.EA, false)
			}
		case isa.ClassStore:
			if dcache {
				h.WarmData(d.EA, true)
			}
		case isa.ClassBranch, isa.ClassJump, isa.ClassRet:
			if pred {
				p.Warm(bpred.Outcome{
					Op: d.Op, PC: d.PC, Taken: d.Taken,
					Target: d.NextPC, NextPC: d.PC + 1,
				})
			}
		}
	}
	if last != noBlock {
		w.lastIBlock, w.haveIBlock = last, true
	}
}
