// Package bpred implements the branch prediction structures of the
// simulated machines: a combining predictor (bimodal + gshare with a
// chooser, SimpleScalar's "comb"), a branch target buffer, and a return
// address stack.
//
// Prediction and update are separate operations on shared state so that
// functional warming (which only updates) and the detailed core (which
// predicts, then updates) drive the same tables — the mechanism SMARTS's
// functional warming depends on.
package bpred

import (
	"fmt"

	"repro/internal/cacheline"
	"repro/internal/delta"
	"repro/internal/isa"
)

// Config sizes the predictor per the paper's Table 3. Every field
// changes what functional warming trains, so every field is folded
// into checkpoint.WarmSignature.
//
//simlint:keystruct WarmSignature
type Config struct {
	// TableEntries is the size of the bimodal, gshare, and chooser tables
	// (power of two). 2048 for the 8-way machine, 8192 for the 16-way.
	TableEntries int
	// HistoryBits is the global history length for the gshare component.
	HistoryBits uint
	// BTBSets and BTBWays size the branch target buffer.
	BTBSets, BTBWays int
	// RASEntries sizes the return address stack.
	RASEntries int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0 {
		return fmt.Errorf("bpred: table entries %d must be a power of two", c.TableEntries)
	}
	if c.HistoryBits == 0 || c.HistoryBits > 16 {
		return fmt.Errorf("bpred: history bits %d out of range", c.HistoryBits)
	}
	if c.BTBSets <= 0 || c.BTBSets&(c.BTBSets-1) != 0 {
		return fmt.Errorf("bpred: BTB sets %d must be a power of two", c.BTBSets)
	}
	if c.BTBWays <= 0 || c.RASEntries <= 0 {
		return fmt.Errorf("bpred: BTB ways / RAS entries must be positive")
	}
	return nil
}

// Stats counts prediction outcomes, split by cause.
type Stats struct {
	Branches   uint64 // conditional branches seen
	DirMispred uint64 // conditional direction mispredictions
	TargetMiss uint64 // taken control flow with wrong/unknown target
	RASMispred uint64 // return address mispredictions
	Indirect   uint64 // indirect jumps seen
	Lookups    uint64 // total predictor consultations
}

// MispredRate returns direction mispredictions per conditional branch.
func (s Stats) MispredRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.DirMispred) / float64(s.Branches)
}

// Unit is the complete prediction unit of one simulated core.
type Unit struct {
	_       cacheline.Pad
	cfg     Config
	bimodal []uint8 // 2-bit counters
	gshare  []uint8 // 2-bit counters
	chooser []uint8 // 2-bit counters: >=2 selects gshare
	history uint64  // global history register

	btbTags  []uint64
	btbTgts  []uint64
	btbValid []bool
	btbLRU   []uint64
	btbStamp uint64

	ras    []uint64
	rasTop int

	// tblDirty and btbDirty are snapshot dirty-tracking bitmaps (see
	// delta.go): one bit per block of direction-table entries (bimodal,
	// gshare, and chooser share indices and one bitmap) and per block of
	// BTB entries. Update and the BTB paths mark them; Delta consumes
	// and clears them, and chain numbers the snapshot points.
	tblDirty delta.Bitmap
	btbDirty delta.Bitmap
	chain    delta.Chain

	// Stats accumulate over the unit's lifetime; callers snapshot/diff.
	Stats Stats

	_ cacheline.Pad
}

// New builds a prediction unit.
func New(cfg Config) *Unit {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.TableEntries
	u := &Unit{
		cfg:      cfg,
		bimodal:  make([]uint8, n),
		gshare:   make([]uint8, n),
		chooser:  make([]uint8, n),
		btbTags:  make([]uint64, cfg.BTBSets*cfg.BTBWays),
		btbTgts:  make([]uint64, cfg.BTBSets*cfg.BTBWays),
		btbValid: make([]bool, cfg.BTBSets*cfg.BTBWays),
		btbLRU:   make([]uint64, cfg.BTBSets*cfg.BTBWays),
		ras:      make([]uint64, cfg.RASEntries),
		tblDirty: delta.NewBitmap(n, tblGrainShift),
		btbDirty: delta.NewBitmap(cfg.BTBSets*cfg.BTBWays, btbGrainShift),
	}
	// Weakly taken initial counters (the SimpleScalar default), chooser
	// weakly preferring bimodal.
	u.Flush()
	return u
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

//simlint:hotpath
func (u *Unit) idx(pc uint64) int {
	return int(pc) & (u.cfg.TableEntries - 1)
}

//simlint:hotpath
func (u *Unit) gidx(pc uint64) int {
	h := u.history & ((1 << u.cfg.HistoryBits) - 1)
	return int(pc^h) & (u.cfg.TableEntries - 1)
}

// Prediction is the front end's view of one control instruction.
type Prediction struct {
	// Taken is the predicted direction (always true for unconditional).
	Taken bool
	// Target is the predicted target PC; valid only when TargetKnown.
	Target uint64
	// TargetKnown reports whether the BTB/RAS produced a target.
	TargetKnown bool
}

// Predict consults the predictor for the control instruction at pc and
// returns the prediction. It does not update any state: call Update with
// the actual outcome afterwards (the detailed core does both; functional
// warming calls Update only... see Warm).
//
//simlint:hotpath
func (u *Unit) Predict(pc uint64, op isa.Op) Prediction {
	u.Stats.Lookups++
	switch op.Class() {
	case isa.ClassBranch:
		var taken bool
		if u.chooser[u.gidx(pc)] >= 2 {
			taken = u.gshare[u.gidx(pc)] >= 2
		} else {
			taken = u.bimodal[u.idx(pc)] >= 2
		}
		tgt, ok := u.btbLookup(pc)
		return Prediction{Taken: taken, Target: tgt, TargetKnown: ok}
	case isa.ClassJump:
		// Direct jumps and calls: target comes from the BTB (decode would
		// also supply it; BTB misses cost a bubble, modelled by the core).
		tgt, ok := u.btbLookup(pc)
		return Prediction{Taken: true, Target: tgt, TargetKnown: ok}
	case isa.ClassRet:
		if op == isa.OpRet && u.rasTop > 0 {
			return Prediction{Taken: true, Target: u.ras[u.rasTop-1], TargetKnown: true}
		}
		// Indirect jump: BTB is the only source.
		tgt, ok := u.btbLookup(pc)
		return Prediction{Taken: true, Target: tgt, TargetKnown: ok}
	}
	return Prediction{}
}

// Outcome describes the resolved behaviour of a control instruction.
type Outcome struct {
	Op     isa.Op
	PC     uint64
	Taken  bool
	Target uint64 // actual next PC when taken
	NextPC uint64 // fall-through successor (PC+1)
}

// Update trains the predictor with the actual outcome. The update rules
// are identical whichever mode calls them; functional warming simply
// calls Predict+Update in instruction order, which is how SMARTSim warms
// sim-bpred state.
//
//simlint:hotpath
func (u *Unit) Update(o Outcome) {
	switch o.Op.Class() {
	case isa.ClassBranch:
		u.Stats.Branches++
		gi, bi := u.gidx(o.PC), u.idx(o.PC)
		u.markTbl(gi) // covers gshare and the chooser (ci == gi)
		u.markTbl(bi)
		gPred := u.gshare[gi] >= 2
		bPred := u.bimodal[bi] >= 2
		// Chooser trains toward the component that was right.
		ci := u.gidx(o.PC)
		if gPred != bPred {
			if gPred == o.Taken {
				u.chooser[ci] = satInc(u.chooser[ci])
			} else {
				u.chooser[ci] = satDec(u.chooser[ci])
			}
		}
		if o.Taken {
			u.gshare[gi] = satInc(u.gshare[gi])
			u.bimodal[bi] = satInc(u.bimodal[bi])
		} else {
			u.gshare[gi] = satDec(u.gshare[gi])
			u.bimodal[bi] = satDec(u.bimodal[bi])
		}
		u.history = u.history<<1 | b2u(o.Taken)
		if o.Taken {
			u.btbInsert(o.PC, o.Target)
		}
	case isa.ClassJump:
		u.btbInsert(o.PC, o.Target)
		if o.Op == isa.OpCall {
			u.rasPush(o.NextPC)
		}
	case isa.ClassRet:
		if o.Op == isa.OpRet {
			u.rasPop()
		} else {
			u.Stats.Indirect++
			u.btbInsert(o.PC, o.Target)
		}
	}
}

// CheckMispredict compares a prediction against the resolved outcome and
// records the mispredict cause in the stats. It returns true when the
// front end would have followed the wrong path.
//
//simlint:hotpath
func (u *Unit) CheckMispredict(p Prediction, o Outcome) bool {
	switch o.Op.Class() {
	case isa.ClassBranch:
		if p.Taken != o.Taken {
			u.Stats.DirMispred++
			return true
		}
		if o.Taken && (!p.TargetKnown || p.Target != o.Target) {
			u.Stats.TargetMiss++
			return true
		}
		return false
	case isa.ClassJump:
		if !p.TargetKnown || p.Target != o.Target {
			u.Stats.TargetMiss++
			return true
		}
		return false
	case isa.ClassRet:
		if !p.TargetKnown || p.Target != o.Target {
			if o.Op == isa.OpRet {
				u.Stats.RASMispred++
			} else {
				u.Stats.TargetMiss++
			}
			return true
		}
		return false
	}
	return false
}

// Warm performs the functional-warming action for one control
// instruction: the predict+update pass an in-order front end makes, so
// counters, history, BTB, and RAS evolve exactly as it would train them.
// It is Predict, CheckMispredict and Update fused into one pass — the
// table indices computed once and the BTB set scanned once, finding the
// hit and the would-be victim together and filling only on a miss — and
// leaves exactly the state, Stats and dirty marks the three calls leave
// (pinned by TestWarmMatchesPredictUpdate).
//
//simlint:hotpath
func (u *Unit) Warm(o Outcome) {
	u.Stats.Lookups++
	switch o.Op.Class() {
	case isa.ClassBranch:
		u.Stats.Branches++
		gi, bi := u.gidx(o.PC), u.idx(o.PC)
		gPred, bPred := u.gshare[gi] >= 2, u.bimodal[bi] >= 2
		pred := bPred
		if u.chooser[gi] >= 2 {
			pred = gPred
		}
		tgt, known := u.btbWarm(o.PC, o.Target, o.Taken)
		if pred != o.Taken {
			u.Stats.DirMispred++
		} else if o.Taken && (!known || tgt != o.Target) {
			u.Stats.TargetMiss++
		}
		u.markTbl(gi) // covers gshare and the chooser
		u.markTbl(bi)
		if gPred != bPred {
			if gPred == o.Taken {
				u.chooser[gi] = satInc(u.chooser[gi])
			} else {
				u.chooser[gi] = satDec(u.chooser[gi])
			}
		}
		if o.Taken {
			u.gshare[gi] = satInc(u.gshare[gi])
			u.bimodal[bi] = satInc(u.bimodal[bi])
		} else {
			u.gshare[gi] = satDec(u.gshare[gi])
			u.bimodal[bi] = satDec(u.bimodal[bi])
		}
		u.history = u.history<<1 | b2u(o.Taken)
	case isa.ClassJump, isa.ClassRet:
		if o.Op == isa.OpRet {
			// The return stack predicts the target; the BTB only when the
			// stack is empty, and a return trains neither.
			var tgt uint64
			known := u.rasTop > 0
			if known {
				tgt = u.ras[u.rasTop-1]
			} else {
				tgt, known = u.btbWarm(o.PC, 0, false)
			}
			if !known || tgt != o.Target {
				u.Stats.RASMispred++
			}
			u.rasPop()
			return
		}
		// Direct jumps and calls, and indirect jumps: the BTB predicts the
		// target and learns it.
		if tgt, known := u.btbWarm(o.PC, o.Target, true); !known || tgt != o.Target {
			u.Stats.TargetMiss++
		}
		if o.Op == isa.OpCall {
			u.rasPush(o.NextPC)
		} else if o.Op.Class() == isa.ClassRet {
			u.Stats.Indirect++
		}
	}
}

// btbWarm is btbLookup followed, when insert is set, by btbInsert of
// target, in one scan of pc's set. It returns what the lookup returns:
// the target the BTB held for pc before the insert, and whether it held
// one. A hit takes a fresh LRU stamp (the lookup's) and then the new
// target (the insert's); a miss fills the victim btbInsert would choose
// — the last invalid way, else the first least-recently-used one.
//
//simlint:hotpath
func (u *Unit) btbWarm(pc, target uint64, insert bool) (uint64, bool) {
	base := (int(pc) & (u.cfg.BTBSets - 1)) * u.cfg.BTBWays
	victim := base
	var oldest uint64 = ^uint64(0)
	for i := base; i < base+u.cfg.BTBWays; i++ {
		if !u.btbValid[i] {
			victim, oldest = i, 0
			continue
		}
		if u.btbTags[i] == pc {
			u.btbStamp++
			u.btbLRU[i] = u.btbStamp
			old := u.btbTgts[i]
			if insert {
				u.btbTgts[i] = target
			}
			u.markBTB(i)
			return old, true
		}
		if u.btbLRU[i] < oldest {
			victim, oldest = i, u.btbLRU[i]
		}
	}
	if insert {
		u.btbStamp++
		u.btbValid[victim] = true
		u.btbTags[victim] = pc
		u.btbTgts[victim] = target
		u.btbLRU[victim] = u.btbStamp
		u.markBTB(victim)
	}
	return 0, false
}

// Flush returns all trained state to exactly its as-constructed
// contents — weakly-taken counters, empty history, and a BTB and return
// stack zeroed in every array, not merely invalidated — so a flushed
// unit snapshots to the same bytes as a new one and predicts
// identically from there on. It differs from Reset only in what it
// keeps: the statistics and the snapshot-chain position (a delta chain
// in progress continues across a Flush; everything is marked dirty).
//
//simlint:hotpath
func (u *Unit) Flush() {
	for i := range u.bimodal {
		u.bimodal[i] = 2
		u.gshare[i] = 2
		u.chooser[i] = 1
	}
	u.history = 0
	clear(u.btbTags)
	clear(u.btbTgts)
	clear(u.btbValid)
	clear(u.btbLRU)
	u.btbStamp = 0
	clear(u.ras)
	u.rasTop = 0
	u.markAllDirty()
}

// Reset returns the unit to exactly the state New built: Flush plus
// zeroed statistics and a snapshot chain that has seen no snapshot. A
// reset unit is indistinguishable from a new one — Snapshot bytes,
// Stats, and every later prediction.
//
//simlint:hotpath
func (u *Unit) Reset() {
	u.Flush()
	u.Stats = Stats{}
	u.chain = delta.Chain{}
}

//simlint:hotpath
func (u *Unit) btbLookup(pc uint64) (uint64, bool) {
	set := int(pc) & (u.cfg.BTBSets - 1)
	base := set * u.cfg.BTBWays
	for w := 0; w < u.cfg.BTBWays; w++ {
		i := base + w
		if u.btbValid[i] && u.btbTags[i] == pc {
			u.btbStamp++
			u.btbLRU[i] = u.btbStamp
			u.markBTB(i)
			return u.btbTgts[i], true
		}
	}
	return 0, false
}

//simlint:hotpath
func (u *Unit) btbInsert(pc, target uint64) {
	set := int(pc) & (u.cfg.BTBSets - 1)
	base := set * u.cfg.BTBWays
	victim := base
	var oldest uint64 = ^uint64(0)
	for w := 0; w < u.cfg.BTBWays; w++ {
		i := base + w
		if u.btbValid[i] && u.btbTags[i] == pc {
			u.btbTgts[i] = target
			u.markBTB(i)
			return
		}
		if !u.btbValid[i] {
			victim = i
			oldest = 0
		} else if u.btbLRU[i] < oldest {
			oldest = u.btbLRU[i]
			victim = i
		}
	}
	u.btbStamp++
	u.btbValid[victim] = true
	u.btbTags[victim] = pc
	u.btbTgts[victim] = target
	u.btbLRU[victim] = u.btbStamp
	u.markBTB(victim)
}

//simlint:hotpath
func (u *Unit) rasPush(ret uint64) {
	if u.rasTop < len(u.ras) {
		u.ras[u.rasTop] = ret
		u.rasTop++
	} else {
		// Overflow: shift (oldest entry lost), standard RAS behaviour.
		copy(u.ras, u.ras[1:])
		u.ras[len(u.ras)-1] = ret
	}
}

//simlint:hotpath
func (u *Unit) rasPop() {
	if u.rasTop > 0 {
		u.rasTop--
	}
}

//simlint:hotpath
func satInc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return 3
}

//simlint:hotpath
func satDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return 0
}

//simlint:hotpath
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
