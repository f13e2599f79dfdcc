package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cacheline"
	"repro/internal/checkpoint"
	"repro/internal/freelist"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
	"repro/internal/wallclock"
)

// RangeUnit is one replayed unit, delivered in stream order.
type RangeUnit struct {
	// Seq is the unit's position in the captured stream (the global
	// stream index shard merges are keyed by).
	Seq int
	// Res is the unit's measurement; meaningless when Partial is set.
	Res UnitResult
	// Warming is the number of detailed-warming instructions the replay
	// executed before measurement.
	Warming uint64
	// Elapsed is the unit's detailed-replay CPU time.
	Elapsed time.Duration
	// Partial reports the program ended inside the unit; the serial
	// semantics drop it and everything after it, which the Merger
	// enforces (trailing units of the stream may still be delivered).
	Partial bool
}

// streamBuffer bounds how far capture may run ahead of replay. Snapshots
// are sizeable (cache tag arrays, predictor tables), so the pipeline
// holds only a few in flight; the sweep blocks when replay is the
// bottleneck and the snapshots' memory stays bounded.
const streamBuffer = 4

// replayStream is the engine's one worker pool, under every schedule:
// produce emits the unit stream through send (a streaming sweep, a
// slice of a captured Set — see replayUnits — or a store entry as it is
// read), nw workers replay the units, and deliver receives every result
// in ascending Seq order starting at base, whatever order the workers
// finish in.
//
// A unit sent with a nil launch is materialized by the worker that
// takes it, from its own rolling state. A unit sent with a launch state
// (a streamed store hit, whose reader rolls the run's one Materializer)
// is restored from that state, and send returns only once a worker has
// restored its machine from it — so the producer may roll the state on
// when send returns — or once the pool is winding down.
//
// The pool winds down — send returns false, nothing more is delivered,
// workers finish only their in-flight unit — once the outcome can no
// longer change: deliver returned false (replayStream then returns nil),
// a replay failed (its error), or ctx was cancelled (ctx.Err()). It
// returns after produce and every worker have.
func replayStream(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, nw, base int,
	produce func(send func(*checkpoint.Unit, *checkpoint.Launch) bool), deliver func(RangeUnit) bool) error {
	type job struct {
		seq    int
		unit   *checkpoint.Unit
		launch *checkpoint.Launch
	}
	type result struct {
		RangeUnit
		err error
	}
	if nw < 1 {
		nw = 1
	}
	feed := make(chan job, streamBuffer)
	done := make(chan result, nw)
	// At most one producer-built launch is out at a time (send waits for
	// it), so a worker's release never blocks.
	released := make(chan struct{}, 1)
	quit := make(chan struct{})
	var quitOnce sync.Once
	stop := func() { quitOnce.Do(func() { close(quit) }) }
	defer context.AfterFunc(ctx, stop)()

	produced := make(chan struct{})
	go func() {
		defer close(produced)
		defer close(feed)
		seq := base
		produce(func(cu *checkpoint.Unit, launch *checkpoint.Launch) bool {
			select {
			case feed <- job{seq, cu, launch}:
				seq++
			case <-quit:
				return false
			}
			if launch == nil {
				return true
			}
			select {
			case <-released:
				return true
			case <-quit:
				return false
			}
		})
	}()

	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// This worker's launch context, taken on its first unit — a
			// pool whose producer has nothing to send (a store miss) takes
			// none — and returned when the worker ends.
			var l *launcher
			defer func() {
				if l != nil {
					l.put(cfg)
				}
			}()
			for j := range feed {
				select {
				case <-quit:
					if j.launch != nil {
						released <- struct{}{}
					}
					return
				default:
				}
				if l == nil {
					l = launchers.Get(cfg)
					l.prog, l.u = prog, u
				}
				err := l.launch(j.unit, j.launch)
				if j.launch != nil {
					released <- struct{}{} // the producer's state may roll on
				}
				// Nothing reads the unit's warm state after its launch: a
				// recycling sweep may reuse it once the interval's other
				// units have launched too.
				j.unit.Release()
				var ru RangeUnit
				if err == nil {
					ru, err = l.measure(j.unit)
				}
				ru.Seq = j.seq
				done <- result{ru, err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// Reorder completions into ascending Seq before delivering, so the
	// consumer observes the deterministic stream order regardless of
	// worker scheduling. Units are dispatched in order, so at most nw
	// results ever wait here.
	pending := make(map[int]RangeUnit, nw)
	next := base
	var err error    // the replay failure that settled the run, if one did
	settled := false // outcome fixed: the remaining results are surplus
	for d := range done {
		if settled {
			continue
		}
		if d.err != nil {
			err, settled = d.err, true
			stop()
			continue
		}
		pending[d.Seq] = d.RangeUnit
		for ru, ok := pending[next]; ok && !settled; ru, ok = pending[next] {
			delete(pending, next)
			next++
			if !deliver(ru) {
				settled = true
				stop()
			}
		}
	}
	stop()
	<-produced
	if settled {
		return err
	}
	// A cancelled context trumps whatever partial measurement drained
	// out — unless the consumer had already fixed the outcome, in which
	// case the result is complete and the cancel merely raced it.
	return ctx.Err()
}

// replayUnits runs units — stream positions base onward — through the
// pool on at most workers workers. The slice is copied and the copy's
// entries dropped as they are dispatched, so a shared Set is never
// modified. A Set's units own their snapshots (cache/TLB tag arrays,
// predictor tables, memory-image map) and hold no arena, so the workers'
// Release does nothing to them: they stay valid for as long as the
// caller's set does, and become collectable with it.
func replayUnits(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, units []*checkpoint.Unit, base, workers int, deliver func(RangeUnit) bool) error {
	if workers > len(units) {
		workers = len(units)
	}
	units = append([]*checkpoint.Unit(nil), units...)
	return replayStream(ctx, prog, cfg, u, workers, base, func(send func(*checkpoint.Unit, *checkpoint.Launch) bool) {
		for i, cu := range units {
			if !send(cu, nil) {
				return
			}
			units[i] = nil
		}
	}, deliver)
}

// ReplayRange replays the units [lo, hi) of set — positions in the
// captured stream — across opt.Workers workers, calling emit for every
// unit in ascending Seq order. It is the distributed service's worker
// entry point: a shard replays only its contiguous range, streams each
// result the moment its stream-order predecessor has been emitted, and
// the coordinator offers the shards' units to the same Merger a
// single-machine run folds through.
//
// The range is clamped to the set (callers size shards from
// Params.ExpectedUnits, which can exceed the captured count when the
// program halts early); an empty range emits nothing and returns nil.
// set is shared and read-only — workers materialize into buffers of
// their own and never write the snapshots — so any number of concurrent
// ReplayRange calls may replay overlapping ranges of one Set.
//
// emit returning false stops the replay early (the consumer's stream
// died); ReplayRange then returns nil after the in-flight units drain.
// ctx cancellation likewise stops dispatch and returns ctx.Err().
func ReplayRange(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, set *checkpoint.Set, lo, hi int, opt Options, emit func(RangeUnit) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if u == 0 {
		return fmt.Errorf("engine: zero sampling unit size")
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(set.Units) {
		hi = len(set.Units)
	}
	if lo >= hi {
		return ctx.Err()
	}
	return replayUnits(ctx, prog, cfg, u, set.Units[lo:hi], lo, opt.workers(), emit)
}

// launcher is one replay worker's launch context, owned by the worker
// goroutine while it runs and kept in launchers between pools: a
// machine, core, memory and CPU that are reset between units instead of
// rebuilt, and a rolling launch state (checkpoint.Materializer)
// positioned at the last unit this worker launched. The feed is in
// stream order, so the next unit is normally a few deltas downstream of
// that position and launching it costs those deltas plus one copy of
// the warm arrays into the machine — no per-unit constant beyond that,
// which is what the paper's cost model (n·(U+W) detailed instructions,
// nothing per launch) assumes.
// When the producer builds the launch state itself (a streamed store
// hit), the worker's own rolling state stays unused.
type launcher struct {
	_       cacheline.Pad
	prog    *program.Program
	u       uint64
	machine *uarch.Machine
	core    *uarch.Core
	mat     checkpoint.Materializer
	mem     *mem.Memory
	cpu     functional.CPU
	src     uarch.Source
	_       cacheline.Pad
}

// launchers keeps the launchers of ended workers by machine
// configuration, so a request's replay builds no machine once an
// earlier request on the same configuration has returned its own.
var launchers = freelist.New("replay launcher", buildLauncher)

// buildLauncher builds a launcher for cfg, bound to no program.
func buildLauncher(cfg uarch.Config) *launcher {
	machine := uarch.NewMachine(cfg)
	return &launcher{machine: machine, core: uarch.NewCore(machine), mem: mem.New()}
}

// put drops everything the launcher holds of its run — the program,
// the rolling state's position and pages, the memory's pages, the CPU —
// and returns it to launchers. The machine and core hold nothing of the
// run, and launch resets them before every unit anyway.
func (l *launcher) put(cfg uarch.Config) {
	l.prog = nil
	l.mat.Reset()
	l.mem.Restore(&mem.Image{})
	l.cpu = functional.CPU{}
	l.src = uarch.Source{}
	launchers.Put(cfg, l)
}

// launch restores the machine for one unit's detailed warming and
// measurement from its checkpoint: from pre, the unit's launch state
// built by the pool's producer, when it is non-nil (launch only reads
// it), else from the worker's own rolling state. The reset contract: a
// unit's measurement is a pure function of its checkpoint, so
// everything a previous unit could have left behind — the energy
// meter's floating-point total, the cycle counter, cache/TLB/BTB LRU
// clocks, return-stack contents, statistics, pipeline buffers,
// privately copied memory pages — is returned to exactly its
// as-constructed state (Machine.Reset, Core.Reset, Memory.Restore)
// before the unit's warm state is restored over it. A cold-capture unit
// therefore launches from the constructed cold state, and CPI and EPI
// carry the same bits as a machine built for the unit alone. The launch
// state stays pristine: the machine gets a copy, the memory shares
// pages copy-on-write, and shared Units are only read — safe at any
// worker count.
func (l *launcher) launch(cu *checkpoint.Unit, pre *checkpoint.Launch) error {
	launch := pre
	if launch == nil {
		var err error
		if launch, err = l.mat.Materialize(cu); err != nil {
			return fmt.Errorf("engine: unit %d: %w", cu.Index, err)
		}
	}
	l.machine.Reset()
	if launch.Warm != nil {
		if err := l.machine.Hier.Restore(launch.Warm.Hier); err != nil {
			return fmt.Errorf("engine: unit %d: %w", cu.Index, err)
		}
		if err := l.machine.Pred.Restore(launch.Warm.Pred); err != nil {
			return fmt.Errorf("engine: unit %d: %w", cu.Index, err)
		}
	}
	l.mem.Restore(launch.Mem)
	l.cpu = *functional.NewAt(l.prog, cu.Arch, l.mem)
	l.src = uarch.Source{CPU: &l.cpu}
	l.core.Reset()
	return nil
}

// measure runs the launched unit's detailed warming and measurement.
func (l *launcher) measure(cu *checkpoint.Unit) (RangeUnit, error) {
	w, u := cu.WarmLen(), l.u
	marks := [2]uarch.Mark{{At: w}, {At: w + u}}
	start := wallclock.Now()
	runStats, err := l.core.Run(&l.src, w+u, marks[:])
	if err != nil {
		return RangeUnit{}, fmt.Errorf("engine: detailed run at unit %d: %w", cu.Index, err)
	}
	elapsed := wallclock.Since(start)
	if runStats.Insts < w+u {
		return RangeUnit{Partial: true, Elapsed: elapsed}, nil
	}
	cycles := marks[1].Cycle - marks[0].Cycle
	energy := marks[1].EnergyNJ - marks[0].EnergyNJ
	return RangeUnit{
		Res: UnitResult{
			Index:    cu.Index,
			Cycles:   cycles,
			EnergyNJ: energy,
			CPI:      float64(cycles) / float64(u),
			EPI:      energy / float64(u),
		},
		Warming: w,
		Elapsed: elapsed,
	}, nil
}
