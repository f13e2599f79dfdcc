// Package uarch implements the detailed cycle-driven out-of-order
// superscalar timing model — the substrate the SMARTS paper's SMARTSim
// wraps with sampling. The organization follows SimpleScalar's
// sim-outorder (the paper's base simulator): an oracle functional core
// (internal/functional) resolves instruction semantics, and this package
// models timing around the resulting dynamic instruction stream with a
// register update unit (RUU), a load/store queue, per-class functional
// unit pools, a combining branch predictor, a multi-level cache
// hierarchy with MSHRs, and a committed-store buffer.
//
// Wrong-path instructions are not executed; a mispredicted control
// instruction stalls fetch until it resolves and then charges the
// configured redirect penalty. This is the one organizational deviation
// from sim-outorder and is a documented source of the (measured,
// bounded) residual warming bias in the Table 5 experiment.
//
// # How the core spends host time
//
// The model is cycle-accurate but not cycle-driven where nothing can
// happen. Two mechanisms keep host time proportional to the work the
// simulated machine does instead of to the cycles it waits or the
// entries its window holds; neither changes a simulated cycle count, an
// event count or a bit of the energy total (core_lockstep_test.go holds
// the core to the scan-and-step implementation it replaced).
//
// Wakeup. The issue stage never asks a waiting instruction whether its
// operands are ready. At dispatch an instruction names its live
// producers — the last writers of its source registers and, for a load,
// the youngest older store within 8 bytes — and sets its bit in the
// waiter bitmap of each one that has not issued. A producer's completion
// cycle is known the moment it issues, so that is when it raises its
// waiters' readyAt and clears their pending counts; a waiter whose last
// producer has issued goes into the wake wheel bucket for its readyAt,
// and from there into the ready mask when that cycle comes. Selection
// walks the ready mask oldest-first from the ROB head with
// bits.TrailingZeros64. The invariant this rests on: a value is never
// usable in its producer's issue cycle — every latency is at least one
// cycle, which Config.Validate enforces — so issuing an instruction can
// never add to the set being selected from in the same cycle, and the
// hierarchy accesses and energy events of a cycle happen in the order an
// age-ordered scan of the window would make them. Instructions whose
// operands are ready but which lose on issue width, a functional unit, a
// D-cache port or an MSHR stay in the mask and retry.
//
// Idle-cycle skipping. A cycle in which no stage changed anything —
// nothing committed, drained, issued, dispatched or fetched — leaves the
// pipeline in a state that only the clock can change, through one of the
// comparisons the stages make against it. Core.idleSpan lists them: the
// ROB head's completion, the next occupied wake-wheel bucket, an MSHR
// release (a ready load waits for one when it would miss and all are
// busy), the draining store's completion, the fetch-queue head leaving
// decode, the end of a redirect penalty, the end of an I-miss stall, and
// the deadlock guard. The core jumps to the earliest. An entry in that
// list that turns out not to matter costs one stepped cycle; a
// comparison missing from it would be a wrong result, which is what the
// lockstep tests and FuzzCoreLockstep are for.
//
// The energy meter is why a skipped span is still charged cycle by
// cycle. Its total is a running float64 sum, and a sampling unit's energy
// is the difference of two readings of it, so the result's bits depend on
// the order and grouping of every addition since the machine was reset.
// energy.Meter.Tick(n) therefore performs n additions of the per-cycle
// energy — an add a cycle is nothing next to a stepped cycle — and the
// wakeup scheme keeps every per-event addition in its original order.
package uarch

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cacheline"
	"repro/internal/energy"
	"repro/internal/isa"
)

// Config describes one simulated machine (paper Table 3). Fields the
// functional sweep observes are folded into checkpoint.WarmSignature;
// the rest shape detailed replay only and are marked nonkey so
// machine variants differing in timing/width share one sweep.
//
//simlint:keystruct WarmSignature
type Config struct {
	//simlint:nonkey display label; never observed by the sweep
	Name string

	// Pipeline widths.
	//simlint:nonkey detailed-replay timing; the sweep never fetches in widths
	FetchWidth, DecodeWidth, IssueWidth, CommitWidth int
	// DecodeDepth is the front-end depth in cycles between fetch and
	// earliest dispatch.
	//simlint:nonkey detailed-replay timing
	DecodeDepth int

	// Window sizes.
	//simlint:nonkey detailed-replay structures; not warmed by the sweep
	RUUSize, LSQSize int

	// Memory system.
	//simlint:nonkey detailed-replay structure; not warmed by the sweep
	StoreBufEntries int
	//simlint:nonkey detailed-replay structure; not warmed by the sweep
	MSHRs int
	//simlint:nonkey detailed-replay bandwidth; not warmed by the sweep
	DL1Ports     int
	IL1, DL1, L2 cache.Config
	ITLBEntries  int
	DTLBEntries  int
	TLBWays      int
	//simlint:nonkey access latencies shape replay cycle counts, not warm contents
	Lat cache.Latencies

	// Functional units.
	//simlint:nonkey detailed-replay resources; not warmed by the sweep
	IntALU, IntMulDiv, FPALU, FPMulDiv int

	// Branch prediction.
	BPred bpred.Config
	//simlint:nonkey replay penalty cycles; prediction contents are keyed via BPred
	MispredictPenalty int
	//simlint:nonkey replay bandwidth; prediction contents are keyed via BPred
	PredsPerCycle int

	// Execution latencies by instruction class (loads use the hierarchy).
	//simlint:nonkey detailed-replay timing
	OpLat [isa.NumClasses]int

	// EnergyScale scales the Wattch-like event energies for this width.
	//simlint:nonkey energy accounting; never observed by the sweep
	EnergyScale float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		return fmt.Errorf("uarch %s: pipeline widths must be positive", c.Name)
	}
	if c.RUUSize <= 0 || c.LSQSize <= 0 {
		return fmt.Errorf("uarch %s: window sizes must be positive", c.Name)
	}
	if c.StoreBufEntries <= 0 || c.MSHRs <= 0 || c.DL1Ports <= 0 {
		return fmt.Errorf("uarch %s: memory resources must be positive", c.Name)
	}
	if c.IntALU <= 0 || c.IntMulDiv <= 0 || c.FPALU <= 0 || c.FPMulDiv <= 0 {
		return fmt.Errorf("uarch %s: functional unit counts must be positive", c.Name)
	}
	// The core wakes an instruction's dependants when it issues, for the
	// cycle its result arrives, so a result must arrive at least a cycle
	// after issue: every execution latency and every hierarchy level's
	// latency is at least one cycle (the TLB penalty only adds to one).
	for cls, lat := range c.OpLat {
		if lat < 1 {
			return fmt.Errorf("uarch %s: OpLat[%d] = %d, latencies must be at least 1 cycle", c.Name, cls, lat)
		}
	}
	if c.Lat.L1 < 1 || c.Lat.L2 < 1 || c.Lat.Mem < 1 || c.Lat.TLB < 0 {
		return fmt.Errorf("uarch %s: hierarchy latencies %+v: L1, L2 and Mem must be at least 1 cycle, TLB non-negative", c.Name, c.Lat)
	}
	for _, cc := range []cache.Config{c.IL1, c.DL1, c.L2} {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("uarch %s: %w", c.Name, err)
		}
	}
	return c.BPred.Validate()
}

// wakeHorizon returns the size of the core's wake wheel in cycles: a
// power of two, at least one bitmap word of cycles, greater than the
// longest latency this (validated) configuration can put between an
// issue and its result — the slowest instruction class, or a load that
// misses the TLB and every cache.
func (c Config) wakeHorizon() int {
	longest := c.Lat.TLB + max(c.Lat.L1, c.Lat.L2, c.Lat.Mem)
	for _, lat := range c.OpLat {
		longest = max(longest, lat)
	}
	return max(64, 1<<bits.Len(uint(longest)))
}

// defaultOpLat returns the per-class execution latencies shared by both
// configurations (SimpleScalar defaults).
func defaultOpLat() [isa.NumClasses]int {
	var l [isa.NumClasses]int
	l[isa.ClassNop] = 1
	l[isa.ClassIntALU] = 1
	l[isa.ClassIntMul] = 3
	l[isa.ClassIntDiv] = 20
	l[isa.ClassFPALU] = 2
	l[isa.ClassFPMul] = 4
	l[isa.ClassFPDiv] = 12
	l[isa.ClassLoad] = 1 // address generation; memory latency added by the hierarchy
	l[isa.ClassStore] = 1
	l[isa.ClassBranch] = 1
	l[isa.ClassJump] = 1
	l[isa.ClassRet] = 1
	l[isa.ClassHalt] = 1
	return l
}

// Config8Way returns the paper's baseline 8-way machine (Table 3, left
// column): 128-entry RUU, 64-entry LSQ, 32KB 2-way L1s, 1MB 4-way L2,
// 16-entry store buffer, 8 MSHRs, 2 D-cache ports, combined predictor
// with 2K tables and a 7-cycle mispredict penalty.
func Config8Way() Config {
	return Config{
		Name:            "8-way",
		FetchWidth:      8,
		DecodeWidth:     8,
		IssueWidth:      8,
		CommitWidth:     8,
		DecodeDepth:     2,
		RUUSize:         128,
		LSQSize:         64,
		StoreBufEntries: 16,
		MSHRs:           8,
		DL1Ports:        2,
		IL1:             cache.Config{Name: "IL1", Sets: 256, Ways: 2, BlockBits: 6}, // 32KB
		DL1:             cache.Config{Name: "DL1", Sets: 256, Ways: 2, BlockBits: 6}, // 32KB
		L2:              cache.Config{Name: "L2", Sets: 4096, Ways: 4, BlockBits: 6}, // 1MB
		ITLBEntries:     128,
		DTLBEntries:     256,
		TLBWays:         4,
		Lat:             cache.Latencies{L1: 1, L2: 12, Mem: 100, TLB: 200},
		IntALU:          4,
		IntMulDiv:       2,
		FPALU:           2,
		FPMulDiv:        1,
		BPred: bpred.Config{
			TableEntries: 2048,
			HistoryBits:  11,
			BTBSets:      512,
			BTBWays:      4,
			RASEntries:   8,
		},
		MispredictPenalty: 7,
		PredsPerCycle:     1,
		OpLat:             defaultOpLat(),
		EnergyScale:       1.0,
	}
}

// Config16Way returns the paper's aggressive 16-way machine (Table 3,
// right column): 256-entry RUU, 128-entry LSQ, 64KB 2-way L1s, 2MB 8-way
// L2, 32-entry store buffer, 16 MSHRs, 4 D-cache ports, 8K predictor
// tables, 10-cycle mispredict penalty, 2 predictions per cycle.
func Config16Way() Config {
	return Config{
		Name:            "16-way",
		FetchWidth:      16,
		DecodeWidth:     16,
		IssueWidth:      16,
		CommitWidth:     16,
		DecodeDepth:     2,
		RUUSize:         256,
		LSQSize:         128,
		StoreBufEntries: 32,
		MSHRs:           16,
		DL1Ports:        4,
		IL1:             cache.Config{Name: "IL1", Sets: 512, Ways: 2, BlockBits: 6}, // 64KB
		DL1:             cache.Config{Name: "DL1", Sets: 512, Ways: 2, BlockBits: 6}, // 64KB
		L2:              cache.Config{Name: "L2", Sets: 4096, Ways: 8, BlockBits: 6}, // 2MB
		ITLBEntries:     128,
		DTLBEntries:     256,
		TLBWays:         4,
		Lat:             cache.Latencies{L1: 2, L2: 16, Mem: 100, TLB: 200},
		IntALU:          16,
		IntMulDiv:       8,
		FPALU:           8,
		FPMulDiv:        4,
		BPred: bpred.Config{
			TableEntries: 8192,
			HistoryBits:  13,
			BTBSets:      1024,
			BTBWays:      4,
			RASEntries:   16,
		},
		MispredictPenalty: 10,
		PredsPerCycle:     2,
		OpLat:             defaultOpLat(),
		EnergyScale:       1.6,
	}
}

// ConfigByName returns the named standard configuration.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "8-way", "8way", "8":
		return Config8Way(), nil
	case "16-way", "16way", "16":
		return Config16Way(), nil
	}
	return Config{}, fmt.Errorf("uarch: unknown config %q", name)
}

// Machine bundles the warmable structures of one simulated processor:
// the cache hierarchy, the branch prediction unit, and the energy meter.
// These persist across simulation-mode switches; the pipeline (inside
// Core) is the only state that detailed warming has to rebuild.
type Machine struct {
	_     cacheline.Pad
	Cfg   Config
	Hier  *cache.Hierarchy
	Pred  *bpred.Unit
	Meter *energy.Meter
	_     cacheline.Pad
}

// NewMachine builds the warmable state for cfg.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hier := &cache.Hierarchy{
		IL1:  cache.New(cfg.IL1),
		DL1:  cache.New(cfg.DL1),
		L2:   cache.New(cfg.L2),
		ITLB: cache.NewTLB("ITLB", cfg.ITLBEntries, cfg.TLBWays, 12),
		DTLB: cache.NewTLB("DTLB", cfg.DTLBEntries, cfg.TLBWays, 12),
		Lat:  cfg.Lat,
	}
	return &Machine{
		Cfg:   cfg,
		Hier:  hier,
		Pred:  bpred.New(cfg.BPred),
		Meter: energy.NewMeter(energy.DefaultModel(cfg.EnergyScale)),
	}
}

// FlushWarmState resets caches, TLBs, and predictor to cold, keeping
// their statistics and the energy meter (see cache.Cache.Flush).
func (m *Machine) FlushWarmState() {
	m.Hier.FlushAll()
	m.Pred.Flush()
}

// Reset returns every warmable structure and the energy meter to
// exactly the state NewMachine built — contents, LRU clocks,
// statistics, event counters, the meter's floating-point total — so
// whatever runs next cannot observe that the machine was used before.
//
//simlint:hotpath
func (m *Machine) Reset() {
	m.Hier.Reset()
	m.Pred.Reset()
	m.Meter.Reset()
}
