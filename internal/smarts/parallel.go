package smarts

import (
	"context"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
)

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
// Semantics versus the in-place serial loop (SerialLoop): each unit
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
// store entry, and returns ctx.Err() (see engine.Run). The sim package
// adds sweep deduplication and progress events on top.
func RunSampledContext(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan, opt engine.Options) (*Result, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	er, err := engine.Run(ctx, prog, cfg, plan.CheckpointParams(), opt)
	if err != nil {
		return nil, err
	}
	return engineResult(plan, er), nil
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
// onReplayed, when non-nil, observes replay progress with the phase
// offset attached and replaces opt.OnReplayed for each offset's replay.
//
// The sweep accounting (FastFwdInsts/FastFwdTime/FastFwdResumedInsts)
// on every result echoes the one shared sweep; callers summing costs
// across phases should count it once. FastFwdTime is 0 when the sweep
// was reused (SweepCached). Cancelling ctx stops the shared
// sweep (or whichever offset's replay is in flight) and returns
// ctx.Err().
func RunSampledPhasesContext(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan, js []uint64, opt engine.Options,
	onReplayed func(j uint64, replayed int, est stats.Estimate)) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set, sweep, err := engine.CaptureSet(ctx, prog, cfg, plan.PhasesParams(js), opt)
	if err != nil {
		return nil, err
	}

	results := make([]*Result, len(js))
	for i, j := range js {
		if onReplayed != nil {
			opt.OnReplayed = func(replayed int, est stats.Estimate) {
				onReplayed(j, replayed, est)
			}
		}
		er, err := engine.RunSet(ctx, prog, cfg, plan.U, set.Offset(j), opt)
		if err != nil {
			return nil, err
		}
		phasePlan := plan
		phasePlan.J = j
		r := engineResult(phasePlan, er)
		r.FastFwdInsts = sweep.SweepInsts
		r.FastFwdTime = sweep.Timing.Sweep
		r.FastFwdResumedInsts = sweep.SweepResumedInsts
		r.SweepCached = sweep.SweepCached
		results[i] = r
	}
	return results, nil
}

// engineResult converts an engine result into the smarts Result shape.
func engineResult(plan Plan, er *engine.Result) *Result {
	// Wall-clock accounting: FastFwdTime is the capture sweep this run
	// executed (0 when it reused one) and DetailedTime the remaining
	// elapsed time, so the two sum to the run's elapsed time just as on
	// the serial path. (The engine's per-worker CPU total,
	// er.Timing.Detailed, would overstate elapsed time by up to the
	// worker count; under the streaming schedule the sweep overlaps
	// replay, so the split is attribution, not a timeline.)
	detailedWall := max(er.Timing.Wall-er.Timing.Sweep, 0)
	res := &Result{
		Plan:                plan,
		PopulationUnits:     er.PopulationUnits,
		MeasuredInsts:       er.MeasuredInsts,
		WarmingInsts:        er.WarmingInsts,
		FastFwdInsts:        er.SweepInsts,
		FastFwdTime:         er.Timing.Sweep,
		DetailedTime:        detailedWall,
		SweepCached:         er.SweepCached,
		FastFwdResumedInsts: er.SweepResumedInsts,
		Units:               er.Units,
	}
	return res
}
