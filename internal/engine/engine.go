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
// it entirely, reading launch states from disk. A store hit is a
// producer like the sweep: the entry's reader (checkpoint.Store.Stream)
// feeds the pool as it reads, so a hit costs max(read, replay/workers),
// not the read and then the replay.
//
// Who rolls a unit's deltas into its launch state depends on the
// producer. A store hit's reader does it, once per unit in stream
// order, with the run's one Materializer, and hands each worker the
// finished launch state to restore from; the reader waits for that
// restore before it rolls on, which costs it little because reading is
// all it does. A live sweep does not: it hands out bare units and every
// worker rolls its own Materializer, applying the deltas since its
// previous unit. Materializing on the sweep goroutine with the reader's
// hand-off stalled the sweep on every restore — measured on the 2-core
// reference box, replay-dense 5–40 % and replay-membound 17–24 % slower
// — because the sweep has warming to do between units and the reader
// has not.
//
// The max(sweep, replay/workers) bound holds only because no two of
// these goroutines write the same cache line. Each writes its own
// machine, core, CPU and memory on every simulated instruction, and the
// allocator packs same-sized structs back to back, so unpadded, two
// workers' energy meters or caches sit a fraction of a line apart and
// every write steals the line from the other core: false sharing, which
// made a streamed run cost a quarter more CPU than the same sweep and
// replays run one after the other. Every struct with a
// //simlint:hotpath pointer-receiver method therefore starts and ends
// with a cacheline.Pad (simlint's padding rule), and
// TestPadsIsolateOwners checks the layout the pool and the sweep
// allocate.
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
// context while it runs (launcher): a machine, core and memory reset to
// exactly their as-constructed state between units, and a
// checkpoint.Materializer rolled forward along the stream, so a unit's
// launch costs the deltas since the worker's previous unit plus one copy
// of the warm arrays (over reset statistics) and page table into the
// machine and memory — not a new machine and a from-keyframe
// materialization — while its measurement stays a pure
// function of its checkpoint. A worker that ends returns its launcher to
// a process-wide free list (internal/freelist), as the sweep returns its
// machine and record ring and a store read its rolling state, so a
// steady-state request builds none of them. Run feeds the pool from the streaming
// sweep, a streamed store entry or a cached Set, RunSet from a caller's
// Set, ReplayRange — the distributed worker's entry point — from a
// [lo, hi) slice of one. The Merger is the stream-order fold
// (partial-unit cut, accounting); Run and RunSet use it locally and the
// distributed coordinator uses the same type for shard streams and
// run-journal replay. The acquisition (lookup, then acquire) is cache,
// then store, then a fresh Sweep streamed into the store and retained
// for the cache: Run attaches the pool to it, and streams a store hit
// that nothing will keep (no cache attached) straight into the pool;
// CaptureSet, for callers that must hold every launch state before
// replaying (the multi-offset path and the distributed coordinator),
// does not, and nothing else differs.
//
// A sweep that nothing retains — Run with no Cache attached, streaming
// into the pool and, with a Store, into the store writer — recycles its
// units' warm state too (checkpoint.Params.Recycle): each keyframe
// interval's cache, TLB and predictor snapshot and deltas are carved
// from one arena of a bounded free list, and the arena is reused once
// every unit of the interval has launched and the sweep has pushed the
// interval's last unit; a run that stops early leaves its unlaunched
// units' holds standing, and the garbage collector takes their arenas.
// The list keeps at most 64 MiB of arenas. Who may hold a unit's warm payload is therefore
// fixed: the sweep, until Sweep's push of the interval's last unit has
// returned (emit, then Journal.Add, which encodes the unit before it
// returns); the worker that launches the unit, until launch returns; and
// a worker's Materializer walking a later unit of the same interval,
// which that later unit's hold covers. Nothing else may read it: an
// asynchronous journal writer (one that encodes after Add returns) must
// take a hold of its own on each unit it queues, or the sweep must not
// recycle. Every stream something keeps — a Cache, CaptureSet, a store
// hit decoded into a Set, a journal's resumed units — owns exactly sized
// arrays with the Set's lifetime, and releasing its units does nothing.
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
	// whole set arrives at once (a store or cache hit; a streamed store
	// hit reports its total once the entry's End record has verified,
	// never for an entry that fails to). Called from the sweep goroutine;
	// callbacks must be fast and may not block on the engine.
	OnCaptured func(captured int)
	// OnReplayed, when non-nil, observes replay progress: it is called
	// each time the deterministic stream-order prefix grows, with the
	// folded unit count and the current CPI estimate over that prefix.
	// A streamed store hit replays units before the entry's End record
	// is read and folds them only after it verifies, so it reports its
	// whole prefix then, in a burst, and gives no estimate from an
	// unverified entry. Called from the goroutine that called Run,
	// never concurrently with itself (but possibly concurrently with
	// OnCaptured).
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

	// Timing is what this run measured of the wall clock. Its sweep
	// fields cover the sweep this run executed — overlapped with replay
	// in the streaming schedule, only the continuation of a resumed one —
	// and are zero when the run reused a sweep (SweepCached).
	Timing wallclock.Timing

	// SweepCached reports that launch states were reused — loaded from
	// the checkpoint store or the memory cache — instead of sweeping;
	// SweepInsts then echoes the original sweep's extent.
	SweepCached bool
}

// SweepKey resolves what a run of p under o sweeps and where that sweep
// is shared: eff is p with the options' one capture knob (Keyframe)
// applied — the parameters the capture actually runs with — and key is
// the store/cache key of that sweep. Keyframe changes only the
// encoding, so no option reaches the key: every schedule of a plan
// shares one sweep. key is the zero Key when neither a Store nor a
// Cache is attached: nothing is looked up under it then. Deriving a key
// is cheap after a program's first: the program hash is memoized on the
// Program (Program.Digest). Run and CaptureSet look sweeps up under
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

// lookup consults the in-memory cache, then the store, for a complete
// sweep under key, for a caller that keeps the set; a store hit is put
// into the cache. A nil set is a miss.
func lookup(key checkpoint.Key, opt Options) (set *checkpoint.Set, err error) {
	if opt.Cache != nil {
		if set = opt.Cache.Get(key); set != nil {
			return set, nil
		}
	}
	if opt.Store != nil {
		if set, err = opt.Store.Load(key); set != nil && opt.Cache != nil {
			opt.Cache.Put(key, set)
		}
	}
	return set, err
}

// Run executes the plan described by p: launch states come from the
// cache or the store when possible — a store hit with no cache attached
// is replayed as the entry is read (replayEntry) — are captured by a
// streaming sweep otherwise, and are replayed across the worker pool.
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

	p, key := opt.SweepKey(prog, cfg, p)
	if opt.Cache == nil && opt.Store != nil {
		// Nothing will keep the set: stream the entry into the pool.
		if res, err := replayEntry(ctx, prog, cfg, p.U, key, opt, start); res != nil || err != nil {
			return res, err
		}
		return replayStreaming(ctx, prog, cfg, p, key, opt, start)
	}
	set, err := lookup(key, opt)
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

// replayEntry replays a store hit as the entry is read: the store's
// reader (Store.Stream) is the pool's producer, as the sweep is on a
// miss, so the run costs max(read, replay/workers) instead of their
// sum. The reader rolls the run's one Materializer and hands each worker
// the unit's launch state, so every delta is applied once, not once per
// worker. Results are held back until the entry's End record verifies
// and only then folded, so nothing from an incomplete entry reaches the
// Merger, OnCaptured or OnReplayed. A nil Result with a nil error is a
// miss — the entry is absent or unusable, or a replay failed, however
// far the read had got — which the store has counted and logged; the
// caller then sweeps, and the sweep rewrites the entry.
func replayEntry(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, key checkpoint.Key, opt Options, start time.Time) (*Result, error) {
	var held []RangeUnit
	sum, err := opt.Store.Stream(ctx, key, func(read func(emit func(*checkpoint.Unit, *checkpoint.Launch) bool)) error {
		return replayStream(ctx, prog, cfg, u, opt.workers(), 0, read, func(ru RangeUnit) bool {
			held = append(held, ru)
			return true
		})
	})
	if sum == nil || err != nil {
		return nil, err
	}
	opt.captured(sum.Captured)
	m := NewMerger(u, opt, len(held))
	for _, ru := range held {
		// A cancel observed while folding (an OnReplayed callback may be
		// the canceller) ends the run as it would mid-replay.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.Offer(ru)
	}
	res := m.Finish()
	res.PopulationUnits = sum.PopulationUnits
	res.SweepInsts = sum.SweepInsts
	res.Timing.Wall = wallclock.Since(start)
	res.SweepCached = true
	return res, nil
}

// CaptureSet returns the complete set of launch states for p, for
// callers that need every unit in hand before replaying (RunSet): the
// multi-offset path captures all offsets in one sweep and replays each
// offset's sub-set. Like Run it prefers the cache, then the store — the
// sweep is then SweepCached — and otherwise acquires the sweep as Run
// does, minus the pool: streamed into the store, journaled and
// resumable, reported unit by unit through opt.OnCaptured. sweep is the
// sweep half of a run's Result: PopulationUnits, the Sweep* accounting,
// SweepCached, and the Timing of the sweep this call executed (Wall
// aside). The returned set may be shared with the cache and is
// read-only.
func CaptureSet(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (set *checkpoint.Set, sweep *Result, err error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	p, key := opt.SweepKey(prog, cfg, p)
	if set, err = lookup(key, opt); err != nil {
		return nil, nil, err
	}
	if set != nil {
		opt.captured(len(set.Units))
		return set, &Result{PopulationUnits: set.PopulationUnits, SweepInsts: set.SweepInsts, SweepCached: true}, nil
	}
	set, sum, t, err := acquire(ctx, prog, cfg, p, key, opt, nil)
	if err != nil {
		return nil, nil, err
	}
	return set, &Result{PopulationUnits: sum.PopulationUnits, SweepInsts: sum.SweepInsts, SweepResumedInsts: sum.ResumedAt, Timing: t}, nil
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
	res.Timing.Wall = wallclock.Since(start)
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
// cache, or a caller without a pool. A stream that nothing retains
// recycles its warm state (checkpoint.Params.Recycle): the pool's
// workers release each unit once it has launched, and the journal
// encodes each unit inside Sweep's push, before the sweep moves past the
// unit's keyframe interval.
func acquire(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, key checkpoint.Key, opt Options,
	send func(*checkpoint.Unit) bool) (*checkpoint.Set, *checkpoint.Summary, wallclock.Timing, error) {
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
	p.Recycle = set == nil
	captured := 0
	sum, t, err := Sweep(ctx, prog, cfg, p, j, func(cu *checkpoint.Unit, _ bool) bool {
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
		return nil, sum, t, err
	}
	if j != nil {
		// A failure is the writer's to log; the run's outcome stands.
		_ = sw.Commit(sum.SweepInsts)
	}
	if set != nil {
		set.PopulationUnits = sum.PopulationUnits
		set.SweepInsts = sum.SweepInsts
		if opt.Cache != nil {
			opt.Cache.Put(key, set)
		}
	}
	return set, sum, t, nil
}

// replayStreaming overlaps the capture sweep with replay: the sweep
// (acquire) is the pool's producer, emitting each unit into the
// pipeline the moment its snapshot is taken.
func replayStreaming(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, key checkpoint.Key, opt Options, start time.Time) (*Result, error) {
	var sum *checkpoint.Summary
	var t wallclock.Timing
	var sweepErr error
	m := NewMerger(p.U, opt, 0)
	err := replayStream(ctx, prog, cfg, p.U, opt.workers(), 0, func(send func(*checkpoint.Unit, *checkpoint.Launch) bool) {
		_, sum, t, sweepErr = acquire(ctx, prog, cfg, p, key, opt, func(cu *checkpoint.Unit) bool { return send(cu, nil) })
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
	t.Detailed, t.Wall = res.Timing.Detailed, wallclock.Since(start)
	res.Timing = t
	return res, nil
}
