package smarts

import (
	"context"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// EngineOptions configures the checkpointed parallel engine behind
// RunSampledContext.
type EngineOptions struct {
	// Workers is the worker-pool size; values <= 0 select GOMAXPROCS.
	Workers int
	// Alpha is the confidence parameter for early termination (zero
	// selects stats.Alpha997).
	Alpha float64
	// TargetEps, when positive, stops measuring units once the CPI
	// estimate's relative confidence interval is within ±TargetEps. The
	// cutoff is decided on stream-order prefixes, so enabling it keeps
	// results deterministic across worker counts.
	TargetEps float64
	// MinUnits is the minimum measured-unit count before early
	// termination may trigger.
	MinUnits uint64
	// Store, when non-nil, persists and reuses capture sweeps on disk
	// (see checkpoint.Store). Plan.Store is used when this is nil.
	Store *checkpoint.Store
	// Cache, when non-nil, reuses capture sweeps in memory (checked
	// after the store); the sim session attaches one to storeless
	// sessions.
	Cache *checkpoint.MemCache
	// Keyframe overrides the delta-encoded capture's full-snapshot
	// interval when positive (see checkpoint.Params.Keyframe). Encoding
	// only — materialized launch states, and therefore results, are
	// unchanged.
	Keyframe int
	// SweepParallelism, when above 1, runs the capture sweep as that
	// many concurrent stream segments (the speculative parallel sweep;
	// see checkpoint.Params.SweepParallelism). Architectural state stays
	// exact; warm state in segments after the first starts cold plus
	// SweepOverlap warm-up instructions, a measured bias.
	SweepParallelism int
	// SweepOverlap is the per-segment warm-up length of a parallel
	// sweep (0 = checkpoint.DefaultSweepOverlap, negative = none).
	SweepOverlap int64
	// ResumeInterval sets the crash-safe sweep journal cadence in
	// keyframes (see engine.Options.ResumeInterval): 0 = default,
	// negative disables partial-sweep journaling and resume.
	ResumeInterval int
	// OnCaptured and OnReplayed observe pipeline progress; see
	// engine.Options. The sim package uses them to emit typed progress
	// events.
	OnCaptured func(captured int)
	OnReplayed func(replayed int, est stats.Estimate)
	// OnPhaseReplayed, when non-nil, observes multi-offset replay
	// progress with the phase offset attached; RunSampledPhasesContext
	// then invokes it instead of OnReplayed for each offset's replay.
	OnPhaseReplayed func(j uint64, replayed int, est stats.Estimate)
}

// engineOptions translates EngineOptions to the engine's option struct.
func (opt EngineOptions) engineOptions() engine.Options {
	return engine.Options{
		Workers:          opt.Workers,
		Alpha:            opt.Alpha,
		TargetEps:        opt.TargetEps,
		MinUnits:         opt.MinUnits,
		Store:            opt.Store,
		Cache:            opt.Cache,
		Keyframe:         opt.Keyframe,
		SweepParallelism: opt.SweepParallelism,
		SweepOverlap:     opt.SweepOverlap,
		ResumeInterval:   opt.ResumeInterval,
		OnCaptured:       opt.OnCaptured,
		OnReplayed:       opt.OnReplayed,
	}
}

// CheckpointParams translates the plan into checkpoint capture
// parameters — the quantity the checkpoint store keys sweeps by. The
// sim session uses it to deduplicate concurrent sweeps for one key.
func (pl Plan) CheckpointParams() checkpoint.Params { return pl.params() }

// params translates a validated Plan into checkpoint capture parameters.
func (pl Plan) params() checkpoint.Params {
	p := checkpoint.Params{
		U:                pl.U,
		K:                pl.K,
		J:                pl.J,
		FunctionalWarm:   pl.Warming == FunctionalWarming,
		Components:       pl.Components,
		MaxUnits:         pl.MaxUnits,
		SweepParallelism: pl.SweepParallelism,
		SweepOverlap:     pl.SweepOverlap,
	}
	if pl.Warming != NoWarming {
		p.W = pl.W
	}
	return p
}

// RunSampledContext executes the plan on the checkpointed parallel
// engine: a functional sweep captures a launch snapshot per selected
// unit (architectural registers and PC, a copy-on-write memory image,
// and — under functional warming — the cache/TLB/predictor state) and
// streams each snapshot straight into a worker pool that replays
// detailed warming plus measurement, while a deterministic stream-order
// fold merges the results. Capture and replay overlap, so wall clock
// approaches max(sweep, replay/workers); with a checkpoint store
// attached, a previously swept (workload, plan, warm geometry) skips
// the sweep entirely.
//
// Semantics versus the in-place serial loop of RunContext: each unit
// launches from sweep state rather than from state carried out of the
// previous unit's detailed simulation. Under functional warming the
// difference is the in-order-versus-out-of-order update gap the paper
// already treats as residual bias (Section 4.5); under detailed or no
// warming, units launch microarchitecturally cold instead of stale. In
// exchange, units become fully independent: results are bit-identical
// for every worker count and every sweep source (fresh or stored), and
// the detailed phase scales with cores.
//
// Cancelling ctx stops the sweep and the worker pool, aborts any staged
// store entry, and returns ctx.Err() (see engine.Run). New code should
// go through the sim package, which adds sweep deduplication and
// progress events on top.
func RunSampledContext(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan, opt EngineOptions) (*Result, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Store == nil {
		opt.Store = plan.Store
	}
	er, err := engine.Run(ctx, prog, cfg, plan.params(), opt.engineOptions())
	if err != nil {
		return nil, err
	}
	return engineResult(plan, er, !er.SweepCached), nil
}

// RunSampledPhasesContext executes the same plan at several systematic
// phase offsets, paying one functional sweep for all of them: a
// multi-offset capture records every offset's launch boundaries in a
// single pass (checkpoint.Params.Offsets), and the engine replays each
// offset's units from the shared snapshots. Each returned Result is
// bit-identical to a dedicated RunSampledContext at that offset;
// results[i] corresponds to js[i]. With a store attached the combined
// multi-offset set is persisted and reused as one entry.
//
// The sweep accounting (FastFwdInsts/FastFwdTime) on every result
// echoes the one shared sweep; callers summing costs across phases
// should count it once. Cancelling ctx stops the shared sweep (or
// whichever offset's replay is in flight) and returns ctx.Err().
func RunSampledPhasesContext(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan, js []uint64, opt EngineOptions) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Store == nil {
		opt.Store = plan.Store
	}
	params := plan.params()
	params.J = 0
	params.Offsets = js
	eopt := opt.engineOptions()
	set, sweepCached, err := engine.CaptureSet(ctx, prog, cfg, params, eopt)
	if err != nil {
		return nil, err
	}

	results := make([]*Result, len(js))
	for i, j := range js {
		if opt.OnPhaseReplayed != nil {
			eopt.OnReplayed = func(replayed int, est stats.Estimate) {
				opt.OnPhaseReplayed(j, replayed, est)
			}
		}
		er, err := engine.RunSet(ctx, prog, cfg, plan.U, set.Offset(j), eopt)
		if err != nil {
			return nil, err
		}
		phasePlan := plan
		phasePlan.J = j
		r := engineResult(phasePlan, er, false)
		r.FastFwdInsts = set.SweepInsts
		r.FastFwdTime = set.SweepTime
		r.SweepCached = sweepCached
		results[i] = r
	}
	return results, nil
}

// engineResult converts an engine result into the smarts Result shape.
// sweepInRun says the sweep's wall clock was part of this run's
// WallTime (a fresh streamed sweep); when false (store or cache hit,
// or replaying a shared pre-captured set) er.SweepTime merely
// echoes a sweep paid elsewhere and the whole elapsed time is detailed
// work.
func engineResult(plan Plan, er *engine.Result, sweepInRun bool) *Result {
	// Wall-clock accounting: FastFwdTime is the capture sweep and
	// DetailedTime the remaining elapsed time, so the two sum to the
	// run's elapsed time just as on the serial path. (The engine's
	// per-worker CPU total, er.DetailedTime, would overstate elapsed
	// time by up to the worker count; under the streaming schedule the
	// sweep overlaps replay, so the split is attribution, not a
	// timeline.)
	detailedWall := er.WallTime
	if sweepInRun {
		detailedWall -= er.SweepTime
		if detailedWall < 0 {
			detailedWall = 0
		}
	}
	res := &Result{
		Plan:                plan,
		PopulationUnits:     er.PopulationUnits,
		MeasuredInsts:       er.MeasuredInsts,
		WarmingInsts:        er.WarmingInsts,
		FastFwdInsts:        er.SweepInsts,
		FastFwdTime:         er.SweepTime,
		DetailedTime:        detailedWall,
		SweepCached:         er.SweepCached,
		FastFwdResumedInsts: er.SweepResumedInsts,
		Units:               er.Units,
	}
	return res
}
