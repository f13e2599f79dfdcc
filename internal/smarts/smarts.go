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
// in internal/engine, and which execution runs a plan is decided in
// one place, the sim session. This package holds the design, the
// result types and the two pieces of execution that are not the
// engine's:
//
//   - CheckpointParams and PhasesParams translate a Plan into what the
//     engine sweeps and keys stores by, and FromEngine builds a Result
//     from the engine's sweep and replay halves. The sim session (and
//     the fleet coordinator) run plans on the engine through these;
//     results are bit-identical for every worker count and sweep
//     source.
//   - SerialLoop is the paper's original execution, kept as the oracle
//     the engine is compared against: it interleaves fast-forwarding
//     and per-unit detailed simulation in place on one goroutine, each
//     unit observing whatever state the previous unit's detailed run
//     left behind. SerialSampler runs the experiments on it.
//   - RunProcedureWith is the one n-calibration loop; its caller
//     supplies the function that executes each sampling step (the sim
//     session's runner, or SerialLoop).
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

// CheckpointParams translates the plan into checkpoint capture
// parameters — the quantity the engine sweeps by and (through
// engine.Options.SweepKey) keys sweeps by. Every Plan field flows
// through here; simlint's storekey analyzer fails the build on one that
// does not.
func (pl Plan) CheckpointParams() checkpoint.Params {
	p := checkpoint.Params{
		U:              pl.U,
		K:              pl.K,
		J:              pl.J,
		FunctionalWarm: pl.Warming == FunctionalWarming,
		Components:     pl.Components,
		MaxUnits:       pl.MaxUnits,
	}
	if pl.Warming != NoWarming {
		p.W = pl.W
	}
	return p
}

// PhasesParams is CheckpointParams for a multi-offset capture: one
// sweep records the launch boundaries of every offset in js (the plan's
// own J is ignored).
func (pl Plan) PhasesParams(js []uint64) checkpoint.Params {
	p := pl.CheckpointParams()
	p.J = 0
	p.Offsets = js
	return p
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

// FromEngine builds the Result of plan from the two halves of an engine
// run: sweep, the capture its launch states came from (its extent,
// sweep time, and whether it was reused or resumed), and replay, the
// measurement (units, detailed instruction counts, wall clock). One
// engine.Run result is both halves; engine.CaptureSet and RunSet return
// them apart, as does the fleet (its sweep, and its Merger's Finish with
// Timing.Wall filled in).
//
// DetailedTime is replay's wall clock less the sweep it ran itself
// (engine.Run streams its sweep into the replay, so its Wall covers
// both), and so FastFwdTime plus DetailedTime is at most the run's
// elapsed time, as on the serial path. The replays' summed time
// (Timing.Detailed) would overstate it by up to the worker count; under
// the streaming schedule the sweep overlaps replay, so the split is
// attribution, not a timeline.
func FromEngine(plan Plan, sweep, replay *engine.Result) *Result {
	return &Result{
		Plan:                plan,
		Units:               replay.Units,
		PopulationUnits:     sweep.PopulationUnits,
		MeasuredInsts:       replay.MeasuredInsts,
		WarmingInsts:        replay.WarmingInsts,
		FastFwdInsts:        sweep.SweepInsts,
		FastFwdTime:         sweep.Timing.Sweep,
		DetailedTime:        max(replay.Timing.Wall-replay.Timing.Sweep, 0),
		SweepCached:         sweep.SweepCached,
		FastFwdResumedInsts: sweep.SweepResumedInsts,
	}
}

// SerialLoop executes one sampling simulation of prog on the machine
// described by cfg the way the paper describes it: one goroutine
// alternates fast-forwarding and detailed simulation in place, so each
// unit observes the state the previous unit's detailed run left behind.
// It is the oracle the checkpointed engine (engine.Run, through the sim
// session) is compared against and the mode that regenerates the
// historical figures; it has no sweep to share, so stores and worker
// counts do not apply.
//
// Engine results differ from it by design: each engine unit launches
// from sweep state rather than from state carried out of the previous
// unit's detailed simulation. Under functional warming the difference is
// the in-order-versus-out-of-order update gap the paper already treats
// as residual bias (Section 4.5); under detailed or no warming, units
// launch microarchitecturally cold instead of stale. In exchange the
// engine's units are fully independent: its results are bit-identical
// for every worker count and every sweep source, and its detailed phase
// scales with cores.
//
// Cancellation or deadline expiry stops the run — between units
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

// SerialSampler runs the experiments' sampling on SerialLoop (it
// satisfies experiments.Sampler), for the tests and benchmarks that
// regenerate the figures on the oracle. SamplePhases runs each offset's
// loop in turn.
type SerialSampler struct{}

// Sample runs plan on SerialLoop.
func (SerialSampler) Sample(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan) (*Result, error) {
	return SerialLoop(ctx, prog, cfg, plan)
}

// SamplePhases runs plan at every offset in js, one SerialLoop each;
// results[i] corresponds to js[i].
func (SerialSampler) SamplePhases(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan, js []uint64) ([]*Result, error) {
	results := make([]*Result, len(js))
	for i, j := range js {
		plan.J = j
		res, err := SerialLoop(ctx, prog, cfg, plan)
		if err != nil {
			return nil, fmt.Errorf("j=%d: %w", j, err)
		}
		results[i] = res
	}
	return results, nil
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
