// Package smarts implements the paper's primary contribution: the
// Sampling Microarchitecture Simulation (SMARTS) framework.
//
// A SMARTS run systematically samples a benchmark's dynamic instruction
// stream: it divides the stream into N/U sampling units of U consecutive
// instructions, selects every k'th unit starting at phase offset j, and
// for each selected unit fast-forwards to W instructions before the
// unit, simulates those W instructions in detail without measuring
// (detailed warming), then simulates and measures the U unit
// instructions in detail. Between units the stream is fast-forwarded
// either purely functionally or with functional warming — replaying
// loads, stores, fetch blocks, and control outcomes into the caches,
// TLBs, and branch predictor so that large microarchitectural state is
// always current (paper Sections 3.1 and 4).
//
// The two-step sizing procedure of Section 5.1 (n_init = 10,000, then
// n_tuned from the measured coefficient of variation) is implemented by
// RunProcedureWith.
//
// # Design versus execution
//
// A Plan is the sampling design and nothing else — U, W, k, j, the
// warming mode — exactly the quantities the paper defines a run by;
// how the selected units are executed is engine.Options, declared once
// in internal/engine. This package connects the two and holds the
// result types:
//
//   - RunSampledContext runs a Plan on the checkpointed engine
//     (internal/engine) under an engine.Options: one functional sweep
//     captures a per-unit launch snapshot — architectural registers, a
//     copy-on-write memory image, and, under functional warming, the
//     cache/TLB/branch-predictor state — and streams it to a worker
//     pool that replays detailed warming plus measurement for every
//     unit from its snapshot, folding CPI/EPI in stream order. Results
//     are bit-identical for every worker count and sweep source.
//     RunSampledPhasesContext measures several phase offsets from one
//     shared sweep.
//   - SerialLoop is the paper's original execution, kept as the oracle
//     the engine is compared against: it interleaves fast-forwarding
//     and per-unit detailed simulation in place on one goroutine, each
//     unit observing whatever state the previous unit's detailed run
//     left behind. It regenerates the historical figures; see
//     RunSampledContext for how engine results relate to it.
//   - RunProcedureWith is the one n-calibration loop; its caller
//     supplies the function that executes each sampling step (either
//     of the above, or the sim session's deduplicating runner).
//
// Pool, fold, sweep acquisition and every execution knob belong to
// internal/engine; nothing here branches on a worker count.
package smarts

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// WarmingMode selects how microarchitectural state is treated between
// sampling units.
type WarmingMode int

// Warming modes.
const (
	// NoWarming leaves all microarchitectural state stale across
	// fast-forward gaps (maximum bias; the paper's motivating problem).
	NoWarming WarmingMode = iota
	// DetailedWarming relies only on the W detailed-warming instructions
	// before each unit to rebuild state (paper Section 4.3).
	DetailedWarming
	// FunctionalWarming keeps caches, TLBs, and the branch predictor
	// continuously warm during fast-forwarding, bounding the required W
	// to pipeline-lifetime effects only (paper Sections 3.1, 4.4, 4.5).
	FunctionalWarming
)

// String implements fmt.Stringer.
func (w WarmingMode) String() string {
	switch w {
	case NoWarming:
		return "none"
	case DetailedWarming:
		return "detailed"
	case FunctionalWarming:
		return "functional"
	}
	return "unknown"
}

// Plan is one sampling design: which units of the stream are measured
// and how microarchitectural state is treated between them. It carries
// no execution setting — worker counts, stores and sweep scheduling are
// engine.Options — and the analyzer holds it to that: every field must
// flow into the checkpoint parameters (and so into the store key), which
// an execution knob cannot.
//
//simlint:keystruct CheckpointParams
type Plan struct {
	// U is the sampling unit size in instructions (paper recommends 1000).
	U uint64
	// W is the detailed-warming length in instructions.
	W uint64
	// K is the systematic sampling interval in units.
	K uint64
	// J is the systematic sample phase offset in units (0 ≤ J < K).
	J uint64
	// Warming selects the fast-forward warming mode.
	Warming WarmingMode
	// Components restricts which structures functional warming maintains
	// (nil = all). Used by the warming-component ablation.
	Components *uarch.WarmComponents
	// MaxUnits, when nonzero, caps the number of measured units.
	MaxUnits int
}

// Validate reports plan errors.
func (pl Plan) Validate() error {
	if pl.U == 0 {
		return fmt.Errorf("smarts: zero sampling unit size")
	}
	if pl.K == 0 {
		return fmt.Errorf("smarts: zero sampling interval")
	}
	if pl.J >= pl.K {
		return fmt.Errorf("smarts: phase offset %d must be below interval %d", pl.J, pl.K)
	}
	return nil
}

// PlanForN builds a systematic plan measuring approximately n units of a
// benchmark with the given dynamic length: k = floor(N_units/n), clamped
// to at least 1 (every unit measured).
func PlanForN(benchLength, u, w, n uint64, mode WarmingMode, j uint64) Plan {
	units := benchLength / u
	k := uint64(1)
	if n > 0 && units > n {
		k = units / n
	}
	if j >= k {
		j = j % k
	}
	return Plan{U: u, W: w, K: k, J: j, Warming: mode}
}

// UnitResult is the measurement of one sampling unit; the serial loop
// and the engine report the same type.
type UnitResult = engine.UnitResult

// Result collects a full sampling run.
type Result struct {
	// Plan echoes the run configuration.
	Plan Plan
	// Units holds the per-unit measurements in stream order.
	Units []UnitResult
	// PopulationUnits is the benchmark length in units (the paper's N).
	PopulationUnits uint64

	// Instruction accounting across modes.
	MeasuredInsts uint64 // detailed, measured (n·U)
	WarmingInsts  uint64 // detailed, unmeasured (n·W)
	FastFwdInsts  uint64 // functionally simulated

	// Wall-clock accounting for the speedup experiments, this run's own
	// (on the engine, from its wallclock.Timing): FastFwdTime is 0 when
	// the run reused a sweep, a resumed sweep's continuation only.
	FastFwdTime  time.Duration
	DetailedTime time.Duration

	// SweepCached reports that the engine reused this run's launch
	// states (a store, memory-cache or fleet hit) instead of sweeping;
	// FastFwdInsts then echoes the reused sweep's extent.
	SweepCached bool
	// FastFwdResumedInsts is the journaled stream position this run's
	// sweep resumed from (0 when the sweep ran cold or was loaded
	// whole): FastFwdInsts - FastFwdResumedInsts is the functional work
	// the run actually executed. FastFwdInsts still echoes the whole
	// sweep.
	FastFwdResumedInsts uint64
}

// CPISample returns the per-unit CPI observations as a stats.Sample.
func (r *Result) CPISample() *stats.Sample {
	var s stats.Sample
	for _, u := range r.Units {
		s.Add(u.CPI)
	}
	return &s
}

// EPISample returns the per-unit EPI observations as a stats.Sample.
func (r *Result) EPISample() *stats.Sample {
	var s stats.Sample
	for _, u := range r.Units {
		s.Add(u.EPI)
	}
	return &s
}

// CPIEstimate returns the CPI estimate at confidence 1-alpha.
func (r *Result) CPIEstimate(alpha float64) stats.Estimate {
	return r.CPISample().Estimate(alpha)
}

// EPIEstimate returns the EPI estimate at confidence 1-alpha.
func (r *Result) EPIEstimate(alpha float64) stats.Estimate {
	return r.EPISample().Estimate(alpha)
}

// SerialLoop executes one sampling simulation of prog on the machine
// described by cfg the way the paper describes it: one goroutine
// alternates fast-forwarding and detailed simulation in place, so each
// unit observes the state the previous unit's detailed run left behind.
// It is the oracle the checkpointed engine (RunSampledContext) is
// compared against and the mode that regenerates the historical
// figures; it has no sweep to share, so stores and worker counts do not
// apply. Cancellation or deadline expiry stops the run — between units
// and, within long fast-forward gaps, every checkpoint.FFChunk
// instructions — and returns ctx.Err().
func SerialLoop(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	cpu := functional.New(prog)
	machine := uarch.NewMachine(cfg)
	core := uarch.NewCore(machine)
	src := &uarch.Source{CPU: cpu}
	warmer := uarch.NewWarmer(machine, cfg)
	if plan.Components != nil {
		warmer.Components = *plan.Components
	}

	res := &Result{
		Plan:            plan,
		PopulationUnits: prog.Length / plan.U,
	}

	var pos uint64 // instructions consumed from the stream so far
	marks := make([]uarch.Mark, 2)

	for unit := plan.J; unit < res.PopulationUnits; unit += plan.K {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if plan.MaxUnits > 0 && len(res.Units) >= plan.MaxUnits {
			break
		}
		unitStart := unit * plan.U
		warmStart := unitStart
		if plan.Warming != NoWarming && plan.W > 0 {
			if plan.W > unitStart {
				warmStart = 0
			} else {
				warmStart = unitStart - plan.W
			}
		}
		if warmStart < pos {
			warmStart = pos // overlapping with previous unit's tail
		}

		// Fast-forward to the warming start, in context-checked chunks.
		ffStart := time.Now()
		ff := warmStart - pos
		for pos < warmStart {
			step := warmStart - pos
			if step > checkpoint.FFChunk {
				step = checkpoint.FFChunk
			}
			var err error
			if plan.Warming == FunctionalWarming {
				err = warmer.ForwardBatch(cpu, step)
			} else {
				_, err = cpu.Run(step)
			}
			if err != nil {
				return nil, fmt.Errorf("smarts: fast-forward at unit %d: %w", unit, err)
			}
			pos += step
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		res.FastFwdInsts += ff
		res.FastFwdTime += time.Since(ffStart)

		// Detailed warming + measured unit in one pipeline-continuous run.
		w := unitStart - pos
		detStart := time.Now()
		core.ResetPipeline()
		marks[0] = uarch.Mark{At: w}
		marks[1] = uarch.Mark{At: w + plan.U}
		runStats, err := core.Run(src, w+plan.U, marks)
		if err != nil {
			return nil, fmt.Errorf("smarts: detailed run at unit %d: %w", unit, err)
		}
		res.DetailedTime += time.Since(detStart)
		pos += runStats.Insts
		if runStats.Insts < w+plan.U {
			// The program ended inside this unit; drop the partial unit.
			break
		}
		res.WarmingInsts += w
		res.MeasuredInsts += plan.U

		cycles := marks[1].Cycle - marks[0].Cycle
		energy := marks[1].EnergyNJ - marks[0].EnergyNJ
		res.Units = append(res.Units, UnitResult{
			Index:    unit,
			Cycles:   cycles,
			EnergyNJ: energy,
			CPI:      float64(cycles) / float64(plan.U),
			EPI:      energy / float64(plan.U),
		})
	}
	return res, nil
}

// RecommendedW returns the detailed-warming length the paper uses with
// functional warming: a safe bound on pipeline-lifetime state, derived
// in Section 4.4 from store-buffer depth × memory latency × peak IPC and
// empirically validated as 2000 (8-way) and 4000 (16-way).
func RecommendedW(cfg uarch.Config) uint64 {
	if cfg.FetchWidth >= 16 {
		return 4000
	}
	return 2000
}

// WorstCaseW returns the analytical upper bound on W of Section 4.4:
// store-buffer depth × memory latency × maximum IPC.
func WorstCaseW(cfg uarch.Config) uint64 {
	return uint64(cfg.StoreBufEntries) * uint64(cfg.Lat.Mem) * uint64(cfg.CommitWidth)
}
