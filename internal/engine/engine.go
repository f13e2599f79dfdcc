// Package engine runs a checkpointed SMARTS sampling plan as a parallel
// pipeline: a functional sweep captures per-unit launch checkpoints
// (internal/checkpoint) and streams each one to a worker pool the
// moment it is taken, workers replay detailed warming plus measurement
// for each unit from its snapshot, and a Merger folds per-unit CPI/EPI
// in stream order, optionally terminating early once a target
// confidence interval is reached.
//
// Because capture and replay overlap, end-to-end wall clock approaches
// max(sweep, replay/workers) instead of their sum — the sweep stops
// being an Amdahl pre-pass. With a checkpoint store attached
// (Options.Store), a workload's sweep is paid once and later runs skip
// it entirely, loading launch states from disk.
//
// The package owns the three things every way of running a plan needs,
// once each. The pool (replayStream) replays a unit stream on N workers
// and delivers results in stream order. Each worker owns one launch
// context for the pool's lifetime (launcher): a machine, core and
// memory reset to exactly their as-constructed state between units, and
// a checkpoint.Materializer rolled forward along the stream, so a
// unit's launch costs the deltas since the worker's previous unit plus
// one copy of the warm arrays into the machine — not a new machine and
// a from-keyframe materialization — while its measurement stays a pure
// function of its checkpoint. Run feeds the pool from the streaming
// sweep or a loaded Set, RunSet from a caller's Set, ReplayRange — the
// distributed worker's entry point — from a [lo, hi) slice of one. The
// Merger is the stream-order fold (partial-unit cut, early-termination
// cutoff, accounting); Run and RunSet use it locally and the
// distributed coordinator uses the same type for shard streams and
// run-journal replay. CaptureSet is the whole-set acquisition (store,
// then cache, then a fresh capture that is saved to both) for callers
// that must hold every launch state before replaying, such as the
// multi-offset path.
//
// Because every unit's detailed simulation is fully determined by its
// checkpoint and there is one fold, results are bit-identical for any
// worker count, any sweep source (streamed, cached or store-loaded),
// any shard split and any early-termination setting — the engine with
// one worker IS the serial path. This is the property the SMARTS
// paper's ~10,000-unit samples make available: units are statistically
// and, once checkpointed, computationally independent.
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
	// Alpha is the confidence parameter used by early termination (and
	// the reported estimate); zero selects stats.Alpha997.
	Alpha float64
	// TargetEps, when positive, stops measuring once the CPI estimate's
	// relative confidence interval is within ±TargetEps. The cutoff is
	// decided on stream-order prefixes, so it is deterministic for any
	// worker count.
	TargetEps float64
	// MinUnits is the minimum number of units measured before early
	// termination may trigger (default 2).
	MinUnits uint64
	// Store, when non-nil, is consulted before sweeping: a usable entry
	// for this (workload, plan, warm geometry) skips the functional
	// sweep entirely, and a completed fresh sweep is persisted for
	// later runs. Early-terminated sweeps are not persisted (they are
	// incomplete).
	Store *checkpoint.Store
	// Cache, when non-nil, is the in-memory analogue of Store, checked
	// after it: a cached Set for this key skips the sweep, and a
	// completed fresh sweep is cached. The sim session attaches one to
	// storeless sessions so sweep reuse does not require disk.
	Cache *checkpoint.MemCache
	// Keyframe sets checkpoint.Params.Keyframe (the full-snapshot
	// interval of delta-encoded capture) when positive. It changes only
	// the encoding, never the materialized launch states, and is
	// excluded from the store key.
	Keyframe int
	// ResumeInterval controls the crash-safe sweep journal kept
	// alongside the store: while the streaming sweep runs, the engine
	// persists a partial-sweep record (checkpoint.PartialWriter) every
	// ResumeInterval keyframes, and a later run of the same key resumes
	// an interrupted sweep from the journal instead of restarting at
	// instruction zero — the resumed unit stream is bit-identical to an
	// uninterrupted sweep's. 0 selects DefaultResumeInterval; negative
	// disables journaling and resume (see ResumeKeyframes). Ignored
	// without a Store (the journal lives in the store directory).
	ResumeInterval int
	// SweepParallelism sets checkpoint.Params.SweepParallelism when
	// above 1: the capture sweep runs as that many concurrent stream
	// segments (speculative parallel sweep). Architectural state stays
	// exact; segments after the first start with cold warm state plus
	// SweepOverlap instructions of warm-up, a measured bias (see the
	// checkpoint package). Warmed parallel sweeps key separately in the
	// store, and the crash-safe sweep journal is disabled for them (a
	// parallel sweep has no single resumable position).
	SweepParallelism int
	// SweepOverlap sets checkpoint.Params.SweepOverlap when nonzero;
	// see that field for the semantics (0 default, negative = stone
	// cold).
	SweepOverlap int64
	// OnCaptured, when non-nil, observes sweep progress: it is called
	// with the cumulative captured-unit count each time a launch
	// snapshot enters the pipeline (once with the total when the whole
	// set arrives at once: a store or cache hit, or CaptureSet). Called
	// from the sweep goroutine; callbacks must be fast and may not block
	// on the engine.
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

// DefaultResumeInterval is the journal cadence used when
// Options.ResumeInterval is zero: one partial-sweep commit every 4
// keyframes keeps the journal I/O a small fraction of capture while
// bounding the replay window an interruption loses to a few keyframe
// intervals of units.
const DefaultResumeInterval = 4

// ResumeKeyframes resolves an Options.ResumeInterval setting to the
// effective journal cadence in keyframes (0 = journaling disabled). The
// distributed worker resolves its journal upload cadence through it
// too, so "0 = default, negative = off" is spelled once.
func ResumeKeyframes(interval int) int {
	switch {
	case interval == 0:
		return DefaultResumeInterval
	case interval < 0:
		return 0
	}
	return interval
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
	// Units holds the per-unit measurements in stream order, truncated
	// at the early-termination cutoff when one triggered.
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

	// EarlyStopped reports that the confidence target cut the run short.
	EarlyStopped bool
	// SweepCached reports that launch states were loaded from the
	// checkpoint store instead of sweeping.
	SweepCached bool
}

// SweepKey resolves what a run of p under o sweeps and where that sweep
// is shared: eff is p with the options' capture-scheduling knobs
// (Keyframe, SweepParallelism, SweepOverlap) applied — the parameters
// the capture actually runs with — and key is the store/cache key of
// that sweep. key is the zero Key when neither a Store nor a Cache is
// attached: nothing is looked up then, and hashing the whole program
// would be wasted. Run and CaptureSet look sweeps up under exactly
// this key, and a caller that deduplicates sweeps ahead of the engine
// (the sim session's singleflight) keys on it too, so the two cannot
// disagree about which knobs reach the key.
func (o Options) SweepKey(prog *program.Program, cfg uarch.Config, p checkpoint.Params) (eff checkpoint.Params, key checkpoint.Key) {
	if o.Keyframe > 0 {
		p.Keyframe = o.Keyframe
	}
	if o.SweepParallelism > 1 {
		p.SweepParallelism = o.SweepParallelism
	}
	if o.SweepOverlap != 0 {
		p.SweepOverlap = o.SweepOverlap
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
// (SweepKey) and consults the store, then the in-memory cache, for a
// complete sweep under that key. A nil set is a miss.
func lookup(prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (eff checkpoint.Params, key checkpoint.Key, set *checkpoint.Set, err error) {
	eff, key = opt.SweepKey(prog, cfg, p)
	if opt.Store != nil {
		if set, err = opt.Store.Load(key); err != nil || set != nil {
			return eff, key, set, err
		}
	}
	if opt.Cache != nil {
		set = opt.Cache.Get(key)
	}
	return eff, key, set, nil
}

// Run executes the plan described by p: launch states are loaded from
// the store or the cache when possible, captured by a streaming sweep
// otherwise, and replayed across the worker pool.
//
// ctx cancels the whole pipeline: the sweep stops at its next chunk
// boundary, workers finish only their in-flight unit, the store writer
// aborts its staged entry (a committed entry is always a complete
// sweep), and Run returns ctx.Err(). With resume journaling enabled
// (Options.ResumeInterval), the interrupted sweep's progress is
// committed to a partial-sweep journal beside the store entries first,
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
// offset's sub-set. Like Run it prefers the store, then the cache —
// cached then reports true and the set's sweep accounting echoes the
// original sweep — and otherwise runs one checkpoint.Capture and hands
// the set to both. The returned set may be shared with the cache and
// is read-only. opt.OnCaptured is called once with the unit count.
func CaptureSet(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (set *checkpoint.Set, cached bool, err error) {
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	p, key, set, err := lookup(prog, cfg, p, opt)
	if err != nil {
		return nil, false, err
	}
	cached = set != nil
	if !cached {
		if set, err = checkpoint.Capture(ctx, prog, cfg, p); err != nil {
			return nil, false, err
		}
		if opt.Store != nil {
			if err := opt.Store.Save(key, set); err != nil {
				opt.Store.Log("checkpoint store: save failed: %v", err)
			}
		}
		if opt.Cache != nil {
			opt.Cache.Put(key, set)
		}
	}
	opt.captured(len(set.Units))
	return set, cached, nil
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
	if err := replayUnits(ctx, prog, cfg, u, set.Units, 0, opt.workers(), m.Offer); err != nil {
		return nil, err
	}
	res := m.Finish()
	res.PopulationUnits = set.PopulationUnits
	res.SweepInsts = set.SweepInsts
	res.SweepTime = set.SweepTime
	res.WallTime = wallclock.Since(start)
	return res, nil
}

// replayStreaming overlaps the capture sweep with replay: the sweep is
// the pool's producer, emitting each unit into the pipeline the moment
// its snapshot is taken, and persists the stream to the store (and a
// complete sweep to the cache) when one is attached.
func replayStreaming(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, key checkpoint.Key, opt Options, start time.Time) (*Result, error) {
	var sum *checkpoint.Summary
	var sweepErr error
	sweep := func(send func(*checkpoint.Unit) bool) {
		var sw *checkpoint.SetWriter
		if opt.Store != nil {
			var err error
			sw, err = opt.Store.Writer(key, prog.Length/p.U)
			if err != nil {
				opt.Store.Log("checkpoint store: not saving: %v", err)
				sw = nil
			}
		}
		// Crash-safe resume: load any partial-sweep journal left by an
		// interrupted run of this key, and stage a fresh journal this
		// sweep commits its own progress into (the previously journaled
		// units are re-added so the new journal is self-contained).
		var pw *checkpoint.PartialWriter
		var rs *checkpoint.ResumeState
		if ri := ResumeKeyframes(opt.ResumeInterval); opt.Store != nil && ri > 0 && p.SweepParallelism <= 1 {
			var rerr error
			if rs, rerr = checkpoint.Resume(opt.Store, key); rerr != nil {
				opt.Store.Log("checkpoint store: resume unavailable: %v", rerr)
				rs = nil
			}
			if pw0, perr := opt.Store.PartialWriter(key, prog.Length/p.U); perr != nil {
				opt.Store.Log("checkpoint store: not journaling: %v", perr)
			} else {
				pw = pw0
			}
			p.Resume = rs
		}
		// journalFail stops journaling after a write error. The failed
		// writer has already cleaned up after itself; a journal from an
		// earlier run that this writer never replaced stays usable.
		journalFail := func(werr error) {
			opt.Store.Log("checkpoint store: sweep journal failed: %v", werr)
			pw = nil
		}

		// With an in-memory cache attached, retain the streamed units so
		// a complete sweep can be cached for later requests.
		var retained []*checkpoint.Unit
		captured := 0
		// push records one unit with the store writer, the journal and the
		// retained set, then sends it down the pipeline.
		push := func(cu *checkpoint.Unit) bool {
			if sw != nil {
				if werr := sw.Add(cu); werr != nil {
					opt.Store.Log("checkpoint store: save failed mid-sweep: %v", werr)
					sw = nil
				}
			}
			if pw != nil {
				if werr := pw.Add(cu); werr != nil {
					journalFail(werr)
				}
			}
			if opt.Cache != nil {
				retained = append(retained, cu)
			}
			if !send(cu) {
				return false
			}
			captured++
			opt.captured(captured)
			return true
		}
		// The journaled units enter the pipeline (and the writers) ahead
		// of the first newly captured unit — after CaptureStream validated
		// the journal against the plan, so an unusable journal feeds
		// nothing and the sweep can restart cold below.
		fedResumed := rs == nil
		feedResumed := func() bool {
			fedResumed = true
			for _, cu := range rs.Units {
				if !push(cu) {
					return false
				}
			}
			return true
		}
		kfSince := 0 // keyframes captured since the last journal commit
		var lastFrame checkpoint.ResumeFrame
		framePending := false
		p.OnFrame = func(fr checkpoint.ResumeFrame) {
			lastFrame, framePending = fr, true
			if pw != nil && kfSince >= ResumeKeyframes(opt.ResumeInterval) {
				if werr := pw.Checkpoint(fr); werr != nil {
					journalFail(werr)
				} else {
					kfSince, framePending = 0, false
				}
			}
		}
		emit := func(cu *checkpoint.Unit) bool {
			if !fedResumed && !feedResumed() {
				return false
			}
			if cu.Mem != nil {
				kfSince++
			}
			return push(cu)
		}
		var err error
		sum, err = checkpoint.CaptureStream(ctx, prog, cfg, p, emit)
		if err != nil && p.Resume != nil && !fedResumed && ctx.Err() == nil {
			// The journal failed resume validation before anything entered
			// the pipeline: drop it and sweep cold rather than failing a
			// run a cold sweep can still complete.
			opt.Store.Log("checkpoint store: dropping unusable partial %s: %v", key.Hash(), err)
			opt.Store.DropPartial(key)
			p.Resume, rs = nil, nil
			fedResumed = true
			sum, err = checkpoint.CaptureStream(ctx, prog, cfg, p, emit)
		}
		if err == nil && sum.Complete && !fedResumed {
			// The journal already covered every boundary: no new unit was
			// captured, so the resumed units enter the pipeline here.
			feedResumed()
		}
		sweepErr = err
		complete := err == nil && sum.Complete
		if sw != nil {
			if complete {
				if werr := sw.Commit(sum.SweepInsts, sum.SweepTime); werr != nil {
					opt.Store.Log("checkpoint store: save failed: %v", werr)
				}
			} else {
				sw.Abort()
			}
		}
		if pw != nil {
			if complete {
				// The committed entry supersedes the journal.
				pw.Discard()
			} else {
				// Interrupted (cancel, early stop, failure): commit the
				// journal through the last captured unit and keep it, so a
				// rerun of this key resumes here instead of restarting.
				if framePending && fedResumed {
					if werr := pw.Checkpoint(lastFrame); werr != nil {
						journalFail(werr)
					}
				}
				if pw != nil {
					if werr := pw.Close(); werr != nil {
						opt.Store.Log("checkpoint store: sweep journal close failed: %v", werr)
					}
				}
			}
		}
		if opt.Cache != nil && complete {
			opt.Cache.Put(key, &checkpoint.Set{
				Units:           retained,
				K:               p.K,
				PopulationUnits: sum.PopulationUnits,
				SweepInsts:      sum.SweepInsts,
				SweepTime:       sum.SweepTime,
			})
		}
	}

	m := NewMerger(p.U, opt, 0)
	if err := replayStream(ctx, prog, cfg, p.U, opt.workers(), 0, sweep, m.Offer); err != nil {
		return nil, err
	}
	res := m.Finish()
	// A sweep error matters only if it prevented units the run still
	// wanted: when early termination already cut the stream, the sweep
	// was cancelled on purpose and its state is irrelevant.
	if sweepErr != nil && !res.EarlyStopped {
		return nil, sweepErr
	}
	res.PopulationUnits = sum.PopulationUnits
	res.SweepInsts = sum.SweepInsts
	res.SweepResumedInsts = sum.ResumedAt
	res.SweepTime = sum.SweepTime
	res.WallTime = wallclock.Since(start)
	return res, nil
}
