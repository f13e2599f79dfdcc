// Package energy implements a Wattch-style activity-based energy model.
//
// Wattch (Brooks et al., ISCA 2000) estimates power by attributing a
// per-access energy to each microarchitectural structure and summing
// activity; with conditional clocking, idle structures still draw a
// fraction of their peak power. This package reproduces that accounting
// shape: the detailed core reports events (fetches, window operations,
// register-file ports, functional-unit operations, cache accesses,
// predictor lookups), the meter integrates event energies plus a
// per-cycle baseline, and energy-per-instruction (EPI) falls out as
// total energy over committed instructions.
//
// Absolute values are loosely calibrated to Wattch-era 0.18um numbers
// (a few nJ per instruction overall); the SMARTS experiments only rely
// on EPI being an additive per-unit metric with somewhat lower relative
// variance than CPI, which this model yields by construction (much of
// EPI is per-instruction event energy, while CPI also absorbs stall
// cycles).
package energy

import (
	"math"

	"repro/internal/cacheline"
)

// Event identifies one energy-consuming activity.
type Event int

// Events reported by the detailed core.
const (
	EvFetch    Event = iota // one instruction fetched (I-cache read port)
	EvBPred                 // one predictor lookup or update
	EvDispatch              // rename + window write for one instruction
	EvIssue                 // window wakeup/select + operand read
	EvRegRead               // one register file read port use
	EvRegWrite              // one register file write port use
	EvIntALU                // integer ALU operation
	EvIntMul                // integer multiply/divide operation
	EvFPALU                 // FP add/compare operation
	EvFPMul                 // FP multiply/divide operation
	EvDL1                   // L1 data cache access
	EvIL1                   // L1 instruction cache access
	EvL2                    // unified L2 access
	EvMem                   // main memory access
	EvCommit                // ROB retire for one instruction
	EvFlush                 // pipeline flush (mispredict recovery)

	NumEvents = int(EvFlush) + 1
)

// String implements fmt.Stringer.
func (e Event) String() string {
	names := [...]string{
		"fetch", "bpred", "dispatch", "issue", "regread", "regwrite",
		"intalu", "intmul", "fpalu", "fpmul", "dl1", "il1", "l2", "mem",
		"commit", "flush",
	}
	if int(e) < len(names) {
		return names[e]
	}
	return "unknown"
}

// Model holds per-event energies in nanojoules and the per-cycle
// baseline (clock tree + conditional-clocking floor).
type Model struct {
	// PerEvent is the energy in nJ charged per event occurrence.
	PerEvent [NumEvents]float64
	// PerCycle is the baseline energy in nJ charged every cycle.
	PerCycle float64
}

// DefaultModel returns energies for the 8-way baseline machine, scaled
// by width so the 16-way machine draws proportionally more per event
// (wider structures have longer bitlines and more ports).
func DefaultModel(widthScale float64) Model {
	m := Model{PerCycle: 2.0 * widthScale}
	e := &m.PerEvent
	e[EvFetch] = 0.30 * widthScale
	e[EvBPred] = 0.15
	e[EvDispatch] = 0.40 * widthScale
	e[EvIssue] = 0.50 * widthScale
	e[EvRegRead] = 0.12
	e[EvRegWrite] = 0.15
	e[EvIntALU] = 0.25
	e[EvIntMul] = 0.90
	e[EvFPALU] = 0.60
	e[EvFPMul] = 1.20
	e[EvDL1] = 0.55
	e[EvIL1] = 0.45
	e[EvL2] = 2.50
	e[EvMem] = 12.0
	e[EvCommit] = 0.20 * widthScale
	e[EvFlush] = 3.0 * widthScale
	return m
}

// Meter accumulates energy. The zero value with a zero Model accumulates
// nothing; build one with NewMeter.
//
// The detailed core writes the total several times per simulated
// instruction, and every replay worker and the sweep own a meter of
// their own. Meters are allocated back to back (they share a size
// class), so unpadded, one worker's total shared a cache line with the
// next worker's model, and each Add stole that line from the other
// core. The pads give the fields lines of their own.
type Meter struct {
	_      cacheline.Pad
	model  Model
	cycles uint64
	total  float64
	_      cacheline.Pad
}

// NewMeter returns a meter using the given model.
func NewMeter(model Model) *Meter {
	return &Meter{model: model}
}

// Reset zeroes the accumulated cycles and energy, returning the
// meter to the state NewMeter built (the model is kept). The total is a
// running floating-point sum, so readings taken after a Reset carry the
// same bits as a new meter's — differencing against an earlier snapshot
// instead would not, which is why a reused machine resets rather than
// diffs.
//
//simlint:hotpath
func (m *Meter) Reset() {
	m.cycles = 0
	m.total = 0
}

// Add records n occurrences of event e.
//
//simlint:hotpath
func (m *Meter) Add(e Event, n uint64) {
	m.total += float64(n) * m.model.PerEvent[e]
}

// Tick records elapsed cycles, charging the baseline energy one cycle
// at a time: the total is a running floating-point sum that callers
// difference between two readings, so its bits depend on the sequence
// of additions, and a core that jumps over n idle cycles must leave the
// bits that stepping through them would: Tick(n) leaves the bits of n
// additions of PerCycle. One cycle, the common case, stays inlinable.
//
//simlint:hotpath
func (m *Meter) Tick(cycles uint64) {
	if cycles != 1 {
		m.tickSpan(cycles)
		return
	}
	m.cycles++
	m.total += m.model.PerCycle
}

// tickSpan is Tick for any other span n, in time that grows with the
// binades the total t crosses, not with n. Proof: let t = M·u, u its
// ulp, 2^52 <= M < 2^53, and 0 < p <= t both normal, so p/u = k + f
// (k = P >> s, f·2^s = P mod 2^s; P p's significand, s the exponent
// gap). Unless f = 1/2, t + p rounds to (M + K)·u with K = k + [f > 1/2]
// while M + K < 2^53, as the multiples of u are then the representable
// numbers around the exact sum. K does not depend on M, so j additions
// that keep M + j·K < 2^53 add j·K to the bit pattern (the fraction
// cannot carry into the exponent), and K = 0 leaves t for good. A tie
// (ties-to-even then depends on M's parity), a binade crossing, and a t
// or p that is zero, subnormal, negative, infinite or NaN, or p > t,
// take one real addition, after which the argument restarts.
//
//simlint:hotpath
func (m *Meter) tickSpan(n uint64) {
	m.cycles += n
	t, p := m.total, m.model.PerCycle
	for n > 0 {
		tb := math.Float64bits(t)
		if k, ok := ulpsPerAdd(tb, math.Float64bits(p)); ok {
			if k == 0 {
				break
			}
			if j := min(n, (1<<52-1-tb&(1<<52-1))/k); j > 0 {
				t, n = math.Float64frombits(tb+j*k), n-j
				continue
			}
		}
		t, n = t+p, n-1
	}
	m.total = t
}

// ulpsPerAdd returns K for t and p's bits, or false where tickSpan must
// add for real.
//
//simlint:hotpath
func ulpsPerAdd(tb, pb uint64) (uint64, bool) {
	te, pe := tb>>52, pb>>52 // a set sign bit puts these past 0x7fe
	if te-1 >= 0x7fe || pe-1 >= 0x7fe || pb > tb {
		return 0, false
	}
	s, P := te-pe, pb&(1<<52-1)|1<<52
	if s > 54 {
		return 0, true // p < u/4
	}
	if s == 0 {
		return P, true
	}
	half := uint64(1) << (s - 1)
	k, rem := P>>s, P&(half<<1-1)
	if rem > half {
		k++
	}
	return k, rem != half
}

// TotalNJ returns the accumulated energy in nanojoules.
//
//simlint:hotpath
func (m *Meter) TotalNJ() float64 { return m.total }

// Cycles returns the accumulated cycle count.
func (m *Meter) Cycles() uint64 { return m.cycles }

// Snapshot captures the current total for later differencing.
type Snapshot struct {
	total  float64
	cycles uint64
}

// Snapshot returns the current accumulation state.
func (m *Meter) Snapshot() Snapshot {
	return Snapshot{total: m.total, cycles: m.cycles}
}

// Since returns the energy in nJ accumulated since the snapshot.
func (m *Meter) Since(s Snapshot) float64 { return m.total - s.total }

// CyclesSince returns the cycles accumulated since the snapshot.
func (m *Meter) CyclesSince(s Snapshot) uint64 { return m.cycles - s.cycles }
