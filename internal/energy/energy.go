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

import "repro/internal/cacheline"

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
// The detailed core writes total and counts several times per simulated
// instruction, and every replay worker and the sweep own a meter of
// their own. Meters are allocated back to back (they share a size
// class), so unpadded, one worker's total shared a cache line with the
// next worker's model, and each Add stole that line from the other
// core. The pads give the fields lines of their own.
type Meter struct {
	_      cacheline.Pad
	model  Model
	counts [NumEvents]uint64
	cycles uint64
	total  float64
	_      cacheline.Pad
}

// NewMeter returns a meter using the given model.
func NewMeter(model Model) *Meter {
	return &Meter{model: model}
}

// Reset zeroes the accumulated counts, cycles and energy, returning the
// meter to the state NewMeter built (the model is kept). The total is a
// running floating-point sum, so readings taken after a Reset carry the
// same bits as a new meter's — differencing against an earlier snapshot
// instead would not, which is why a reused machine resets rather than
// diffs.
//
//simlint:hotpath
func (m *Meter) Reset() {
	m.counts = [NumEvents]uint64{}
	m.cycles = 0
	m.total = 0
}

// Add records n occurrences of event e.
//
//simlint:hotpath
func (m *Meter) Add(e Event, n uint64) {
	m.counts[e] += n
	m.total += float64(n) * m.model.PerEvent[e]
}

// Tick records elapsed cycles, charging the baseline energy one cycle
// at a time: the total is a running floating-point sum that callers
// difference between two readings, so its bits depend on the sequence
// of additions, and a core that jumps over n idle cycles must leave the
// bits that stepping through them would. Tick(n) is therefore n
// additions of PerCycle, never one of n*PerCycle.
//
//simlint:hotpath
func (m *Meter) Tick(cycles uint64) {
	m.cycles += cycles
	total, perCycle := m.total, m.model.PerCycle
	for ; cycles > 0; cycles-- {
		total += perCycle
	}
	m.total = total
}

// TotalNJ returns the accumulated energy in nanojoules.
//
//simlint:hotpath
func (m *Meter) TotalNJ() float64 { return m.total }

// Cycles returns the accumulated cycle count.
func (m *Meter) Cycles() uint64 { return m.cycles }

// Count returns the number of occurrences recorded for e.
func (m *Meter) Count(e Event) uint64 { return m.counts[e] }

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
