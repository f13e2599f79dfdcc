// Package engine runs a checkpointed SMARTS sampling plan as a parallel
// pipeline: a functional sweep captures per-unit launch checkpoints
// (internal/checkpoint) and streams each one to a worker pool the
// moment it is taken, workers replay detailed warming plus measurement
// for each unit from its snapshot, and a Merger folds per-unit CPI/EPI
// in stream order.
//
// Because capture and replay overlap, end-to-end wall clock approaches
// max(sweep, replay/workers) instead of their sum — the sweep stops
// being an Amdahl pre-pass — where the sweep is itself max(interpret,
// warm): checkpoint.CaptureStream interprets on one goroutine and warms
// on the one Sweep calls it from. With a checkpoint store attached
// (Options.Store), a workload's sweep is paid once and later runs skip
// it entirely, loading launch states from disk.
//
// The package owns the four things every way of running a plan needs,
// once each. The sweep driver (Sweep) is the only caller of
// checkpoint.CaptureStream: it resumes an interrupted sweep from its
// Journal or starts cold, journals progress as it emits the unit
// stream, and at the end keeps an interrupted sweep's journal or leaves
// a complete one to its caller — the store writer, whose one file is
// the journal until the completed sweep commits it as the entry. The
// pool (replayStream) replays a unit stream on N workers and delivers
// results in stream order. Each worker owns one launch
// context for the pool's lifetime (launcher): a machine, core and
// memory reset to exactly their as-constructed state between units, and
// a checkpoint.Materializer rolled forward along the stream, so a
// unit's launch costs the deltas since the worker's previous unit plus
// one copy of the warm arrays into the machine — not a new machine and
// a from-keyframe materialization — while its measurement stays a pure
// function of its checkpoint. Run feeds the pool from the streaming
// sweep or a loaded Set, RunSet from a caller's Set, ReplayRange — the
// distributed worker's entry point — from a [lo, hi) slice of one. The
// Merger is the stream-order fold (partial-unit cut, accounting); Run
// and RunSet use it locally and the distributed coordinator uses the
// same type for shard streams and run-journal replay. The acquisition
// (lookup, then acquire) is cache, then store, then a fresh Sweep
// streamed into the store and retained for the cache: Run attaches the
// pool to it; CaptureSet, for callers that must hold every launch state
// before replaying (the multi-offset path and the distributed
// coordinator), does not, and nothing else differs.
//
// Because every unit's detailed simulation is fully determined by its
// checkpoint and there is one fold, results are bit-identical for any
// worker count, any sweep source (streamed, resumed, cached or
// store-loaded) and any shard split — the engine with one worker IS the
// serial path. Every run measures its whole plan: a caller that wants a
// target confidence interval sizes the plan for it up front (the sim
// package's two-step procedure), because a sample cut short in stream
// order covers only the program's beginning. There is one sweep
// schedule, serial, so no option changes what a plan's sweep captures.
// This is the property the SMARTS paper's ~10,000-unit samples make
// available: units are statistically and, once checkpointed,
// computationally independent.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/wallclock"
)

// Options configures engine execution beyond the sampling parameters:
// how a plan runs, as opposed to what it samples (smarts.Plan). It is
// the one settable declaration of every execution and
// capture-scheduling knob below the sim package's public API — the sim
// session, the experiments and the tests fill one in and hand it to
// Run, CaptureSet or RunSet; nothing between them and the engine
// carries a second copy of a field.
type Options struct {
	// Workers is the worker-pool size; values <= 0 select GOMAXPROCS.
	Workers int
	// Alpha is the confidence parameter of the estimate OnReplayed
	// reports; zero selects stats.Alpha997.
	Alpha float64
	// Store, when non-nil, is consulted before sweeping: a usable entry
	// for this (workload, plan, warm geometry) skips the functional
	// sweep entirely, and a completed fresh sweep is persisted for
	// later runs. The entry is written as the sweep runs and is its
	// crash journal on the way: a cancelled or killed sweep leaves a
	// partial journal, not an entry, and a later run of the same key
	// resumes from it instead of restarting at instruction zero, with a
	// unit stream bit-identical to an uninterrupted sweep's.
	Store *checkpoint.Store
	// Cache, when non-nil, is the in-memory analogue of Store, checked
	// before it: a cached Set for this key skips the sweep, and a store
	// hit or a completed fresh sweep is cached. The sim session attaches
	// one to storeless sessions so sweep reuse does not require disk; the
	// distributed coordinator attaches both, so a primed key costs a
	// memory lookup and no store decode.
	Cache *checkpoint.MemCache
	// Keyframe sets checkpoint.Params.Keyframe (the full-snapshot
	// interval of delta-encoded capture) when positive. It changes only
	// the encoding, never the materialized launch states, and is
	// excluded from the store key.
	Keyframe int
	// OnCaptured, when non-nil, observes sweep progress: it is called
	// with the cumulative captured-unit count each time the sweep hands
	// over a launch snapshot — under Run and CaptureSet alike, the units
	// of a resumed journal included — and once with the total when the
	// whole set arrives at once (a store or cache hit). Called from the
	// sweep goroutine; callbacks must be fast and may not block on the
	// engine.
	OnCaptured func(captured int)
	// OnReplayed, when non-nil, observes replay progress: it is called
	// each time the deterministic stream-order prefix grows, with the
	// folded unit count and the current CPI estimate over that prefix.
	// Called from the goroutine that called Run, never concurrently
	// with itself (but possibly concurrently with OnCaptured).
	OnReplayed func(replayed int, est stats.Estimate)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// UnitResult is the measurement of one sampling unit.
type UnitResult struct {
	// Index is the unit's position in the population (unit number).
	Index uint64
	// Cycles is the number of cycles the unit's U instructions took to
	// commit.
	Cycles uint64
	// EnergyNJ is the energy accumulated while the unit committed.
	EnergyNJ float64
	// CPI and EPI are the unit's per-instruction metrics.
	CPI, EPI float64
}

// Result collects a parallel sampling run.
type Result struct {
	// Units holds the per-unit measurements in stream order.
	Units []UnitResult
	// PopulationUnits is the benchmark length in units.
	PopulationUnits uint64

	// Instruction accounting.
	MeasuredInsts uint64 // detailed, measured
	WarmingInsts  uint64 // detailed, unmeasured
	SweepInsts    uint64 // functionally simulated by the capture sweep

	// SweepResumedInsts is the journaled stream position the sweep
	// resumed from (0 when the sweep ran cold): SweepInsts -
	// SweepResumedInsts is the functional work this run actually
	// executed, the quantity crash/resume accounting bounds.
	SweepResumedInsts uint64

	// SweepTime is the wall-clock cost of the capture sweep (overlapped
	// with replay in the streaming schedule; the original sweep's cost
	// when launch states came from the store); DetailedTime is the CPU
	// time summed over per-unit detailed replays (wall-clock detailed
	// cost is roughly DetailedTime divided by the worker count);
	// WallTime is the end-to-end elapsed time.
	SweepTime    time.Duration
	DetailedTime time.Duration
	WallTime     time.Duration

	// SweepCached reports that launch states were loaded from the
	// checkpoint store instead of sweeping.
	SweepCached bool
}

// SweepKey resolves what a run of p under o sweeps and where that sweep
// is shared: eff is p with the options' one capture knob (Keyframe)
// applied — the parameters the capture actually runs with — and key is
// the store/cache key of that sweep. Keyframe changes only the
// encoding, so no option reaches the key: every schedule of a plan
// shares one sweep. key is the zero Key when neither a Store nor a
// Cache is attached: nothing is looked up then, and hashing the whole
// program would be wasted. Run and CaptureSet look sweeps up under
// exactly this key, and a caller that deduplicates sweeps ahead of the
// engine (the sim session's singleflight) keys on it too, so the two
// cannot disagree.
func (o Options) SweepKey(prog *program.Program, cfg uarch.Config, p checkpoint.Params) (eff checkpoint.Params, key checkpoint.Key) {
	if o.Keyframe > 0 {
		p.Keyframe = o.Keyframe
	}
	if o.Store != nil || o.Cache != nil {
		key = checkpoint.KeyFor(prog, cfg, p)
	}
	return p, key
}

// captured reports n units entering the pipeline at once.
func (o Options) captured(n int) {
	if o.OnCaptured != nil {
		o.OnCaptured(n)
	}
}

// lookup resolves p to its effective capture parameters and key
// (SweepKey) and consults the in-memory cache, then the store, for a
// complete sweep under that key; a store hit is put into the cache. A
// nil set is a miss.
func lookup(prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (eff checkpoint.Params, key checkpoint.Key, set *checkpoint.Set, err error) {
	eff, key = opt.SweepKey(prog, cfg, p)
	if opt.Cache != nil {
		if set = opt.Cache.Get(key); set != nil {
			return eff, key, set, nil
		}
	}
	if opt.Store != nil {
		if set, err = opt.Store.Load(key); set != nil && opt.Cache != nil {
			opt.Cache.Put(key, set)
		}
	}
	return eff, key, set, err
}

// Run executes the plan described by p: launch states are loaded from
// the store or the cache when possible, captured by a streaming sweep
// otherwise, and replayed across the worker pool.
//
// ctx cancels the whole pipeline: the sweep stops at its next chunk
// boundary, workers finish only their in-flight unit, and Run returns
// ctx.Err(). With a store attached, the store writer keeps the
// interrupted sweep's progress as the key's partial journal instead of
// committing an entry (a committed entry is always a complete sweep),
// so rerunning the same key continues the sweep instead of restarting
// it. A nil ctx is treated as context.Background().
func Run(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := wallclock.Now()

	p, key, set, err := lookup(prog, cfg, p, opt)
	if err != nil {
		return nil, err
	}
	if set == nil {
		return replayStreaming(ctx, prog, cfg, p, key, opt, start)
	}
	opt.captured(len(set.Units))
	res, err := replaySet(ctx, prog, cfg, p.U, set, opt, start)
	if err != nil {
		return nil, err
	}
	res.SweepCached = true
	return res, nil
}

// CaptureSet returns the complete set of launch states for p, for
// callers that need every unit in hand before replaying (RunSet): the
// multi-offset path captures all offsets in one sweep and replays each
// offset's sub-set. Like Run it prefers the cache, then the store —
// cached then reports true and the set's sweep accounting echoes the
// original sweep — and otherwise acquires the sweep as Run does, minus
// the pool: streamed into the store, journaled and resumable (resumedAt
// is the journaled position it continued from, 0 when cold), reported
// unit by unit through opt.OnCaptured. The returned set may be shared
// with the cache and is read-only.
func CaptureSet(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (set *checkpoint.Set, resumedAt uint64, cached bool, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, false, err
	}
	p, key, set, err := lookup(prog, cfg, p, opt)
	if err != nil {
		return nil, 0, false, err
	}
	if set != nil {
		opt.captured(len(set.Units))
		return set, 0, true, nil
	}
	set, sum, err := acquire(ctx, prog, cfg, p, key, opt, nil)
	if err != nil {
		return nil, 0, false, err
	}
	return set, sum.ResumedAt, false, nil
}

// RunSet replays an already-captured set of launch states across the
// worker pool — the entry point for callers that captured several phase
// offsets in one sweep (CaptureSet, checkpoint.Set.Offset) or otherwise
// manage capture themselves. The caller keeps ownership of set; it is
// not modified. ctx cancels the replay as in Run.
func RunSet(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, set *checkpoint.Set, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if u == 0 {
		return nil, fmt.Errorf("engine: zero sampling unit size")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return replaySet(ctx, prog, cfg, u, set, opt, wallclock.Now())
}

// replaySet replays an in-memory set through the pool and the Merger.
func replaySet(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, set *checkpoint.Set, opt Options, start time.Time) (*Result, error) {
	m := NewMerger(u, opt, len(set.Units))
	if err := replayUnits(ctx, prog, cfg, u, set.Units, 0, opt.workers(), m.deliver); err != nil {
		return nil, err
	}
	res := m.Finish()
	res.PopulationUnits = set.PopulationUnits
	res.SweepInsts = set.SweepInsts
	res.SweepTime = set.SweepTime
	res.WallTime = wallclock.Since(start)
	return res, nil
}

// acquire is the engine's one fresh acquisition of a sweep, with a pool
// attached (send is its feed) or without (nil): Sweep for (p, key), each
// unit handed to send, then reported through opt.OnCaptured. With a
// store attached, one store writer is the sweep's journal: it receives
// every unit, and a complete sweep commits it as the entry, while an
// incomplete one (cancelled, cut short by send, failed) leaves at most
// its journal. A complete sweep is also handed to the cache. Units are
// retained, and a set returned, only if someone will hold it: the
// cache, or a caller without a pool.
func acquire(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, key checkpoint.Key, opt Options,
	send func(*checkpoint.Unit) bool) (*checkpoint.Set, *checkpoint.Summary, error) {
	var sw *checkpoint.SetWriter
	var j Journal
	if opt.Store != nil {
		var err error
		if sw, err = opt.Store.Writer(key, prog.Length/p.U); err != nil {
			opt.Store.Log("checkpoint store: not saving: %v", err)
		} else {
			j = sw
		}
	}
	var set *checkpoint.Set
	if opt.Cache != nil || send == nil {
		set = &checkpoint.Set{K: p.K}
	}
	captured := 0
	sum, err := Sweep(ctx, prog, cfg, p, j, func(cu *checkpoint.Unit, _ bool) bool {
		if set != nil {
			set.Units = append(set.Units, cu)
		}
		if send != nil && !send(cu) {
			return false
		}
		captured++
		opt.captured(captured)
		return true
	})
	if err != nil || !sum.Complete {
		return nil, sum, err
	}
	if j != nil {
		// A failure is the writer's to log; the run's outcome stands.
		_ = sw.Commit(sum.SweepInsts, sum.SweepTime)
	}
	if set != nil {
		set.PopulationUnits = sum.PopulationUnits
		set.SweepInsts = sum.SweepInsts
		set.SweepTime = sum.SweepTime
		if opt.Cache != nil {
			opt.Cache.Put(key, set)
		}
	}
	return set, sum, nil
}

// replayStreaming overlaps the capture sweep with replay: the sweep
// (acquire) is the pool's producer, emitting each unit into the
// pipeline the moment its snapshot is taken.
func replayStreaming(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, key checkpoint.Key, opt Options, start time.Time) (*Result, error) {
	var sum *checkpoint.Summary
	var sweepErr error
	m := NewMerger(p.U, opt, 0)
	err := replayStream(ctx, prog, cfg, p.U, opt.workers(), 0, func(send func(*checkpoint.Unit) bool) {
		_, sum, sweepErr = acquire(ctx, prog, cfg, p, key, opt, send)
	}, m.deliver)
	if err != nil {
		return nil, err
	}
	if sweepErr != nil {
		return nil, sweepErr
	}
	res := m.Finish()
	res.PopulationUnits = sum.PopulationUnits
	res.SweepInsts = sum.SweepInsts
	res.SweepResumedInsts = sum.ResumedAt
	res.SweepTime = sum.SweepTime
	res.WallTime = wallclock.Since(start)
	return res, nil
}
