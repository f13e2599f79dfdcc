package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bpred"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/perfmodel"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/sim"
)

// perLayer are the metrics of single layers, measured in the traced pass
// by timing calls into each layer's exported functions from here. Layer
// prefix = package name. None is gated; the ones marked exact are
// simulated statistics or byte counts that two commits must reproduce
// exactly unless the model or the format is meant to change. The last five
// are the issue's end-to-end candidates that cannot carry a bound under the
// driver's rules: zero on some workloads, different for every seed, or (the
// resident-set peak, which follows the collector's timing) spread by up to
// 9% between runs of one commit against a bound that may not pass 15%.
var perLayer = []metricDef{
	{name: "program.generate_s", unit: "s", better: "lower"},
	{name: "functional.ns_per_inst", unit: "ns", better: "lower"},
	{name: "warmer.ns_per_inst", unit: "ns", better: "lower"},
	{name: "warmer.self_ns_per_inst", unit: "ns", better: "lower"},
	{name: "cache.warm_ns_per_access", unit: "ns", better: "lower"},
	{name: "bpred.warm_ns_per_branch", unit: "ns", better: "lower"},
	{name: "cache.il1_miss_rate", unit: "ratio", better: "lower", exact: true},
	{name: "cache.dl1_miss_rate", unit: "ratio", better: "lower", exact: true},
	{name: "cache.l2_miss_rate", unit: "ratio", better: "lower", exact: true},
	{name: "cache.dtlb_miss_rate", unit: "ratio", better: "lower", exact: true},
	{name: "bpred.mispred_rate", unit: "ratio", better: "lower", exact: true},
	{name: "checkpoint.capture_units_per_s", unit: "1/s", better: "higher"},
	{name: "checkpoint.sweep_ns_per_inst", unit: "ns", better: "lower"},
	{name: "checkpoint.capture_self_ns_per_unit", unit: "ns", better: "lower"},
	{name: "checkpoint.snapshot_bytes_per_unit", unit: "B", better: "lower", exact: true},
	{name: "checkpoint.mem_bytes_per_unit", unit: "B", better: "lower", exact: true},
	{name: "checkpoint.encode_ns_per_unit", unit: "ns", better: "lower"},
	{name: "checkpoint.decode_ns_per_unit", unit: "ns", better: "lower"},
	{name: "checkpoint.wire_bytes_per_unit", unit: "B", better: "lower"},
	{name: "store.save_ns_per_unit", unit: "ns", better: "lower"},
	{name: "store.load_ns_per_unit", unit: "ns", better: "lower"},
	{name: "store.bytes_per_unit", unit: "B", better: "lower"},
	{name: "checkpoint.materialize_ns_per_unit", unit: "ns", better: "lower"},
	{name: "core.ns_per_inst", unit: "ns", better: "lower"},
	{name: "core.ns_per_cycle", unit: "ns", better: "lower"},
	{name: "core.cpi", unit: "cycles/inst", better: "lower", exact: true},
	{name: "engine.replay_units_per_s", unit: "1/s", better: "higher"},
	{name: "engine.replay_self_ns_per_unit", unit: "ns", better: "lower"},
	{name: "engine.run_w1_s", unit: "s", better: "lower"},
	{name: "engine.run_s", unit: "s", better: "lower"},
	{name: "engine.speedup_x", unit: "x", better: "higher"},
	{name: "engine.overhead_frac", unit: "ratio", better: "lower"},
	{name: "stats.offer_ns_per_unit", unit: "ns", better: "lower"},
	{name: "stats.units_merged", unit: "count", better: "higher", exact: true},
	{name: "smarts.serial_loop_s", unit: "s", better: "lower"},
	{name: "sim.overhead_ms", unit: "ms", better: "lower"},
	{name: "dist.overhead_x", unit: "x", better: "lower"},
	{name: "dist.rpc_count", unit: "count", better: "lower"},
	{name: "dist.rpc_bytes_per_unit", unit: "B", better: "lower"},
	{name: "dist.journal_bytes_per_unit", unit: "B", better: "lower"},
	{name: "dist.events_per_run", unit: "count", better: "lower"},
	{name: "model.sweep_share", unit: "ratio", better: "lower"},
	{name: "model.replay_share", unit: "ratio", better: "lower"},
	{name: "model.sum_over_wall", unit: "ratio", better: "lower"},
	{name: "perfmodel.pred_over_serial", unit: "ratio", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "store_mb", unit: "MB", better: "lower"},
	{name: "cpi_err_pct", unit: "%", better: "lower", exact: true},
	{name: "ci_rel_pct", unit: "%", better: "lower", exact: true},
	{name: "failed_frac", unit: "ratio", better: "lower", exact: true},
}

const (
	// warmReplayInsts is how much of the stream's head the cache and
	// predictor warm paths are timed over, replayed in warmChunk-record
	// pieces so the recorded stream never has to be held whole.
	warmReplayInsts = 2_000_000
	warmChunk       = 1 << 16
	// coreInsts is the contiguous prefix the detailed core is timed on.
	coreInsts = 1_000_000
	// overheadReps is how often the engine is run bare and through a
	// session to find the session's overhead.
	overheadReps = 3
	// The terms of model.sum_over_wall (capture, replay, the one-processor
	// engine run) are timed in rounds and their medians used, so that
	// disturbed calls do not unsettle the attribution: at least
	// modelMinRounds rounds, and more, up to modelMaxRounds, while they
	// fit in modelTime.
	modelMinRounds = 3
	modelMaxRounds = 9
	modelTime      = 4 * time.Second
	// modelLo and modelHi bound model.sum_over_wall: outside them the
	// layer times do not explain the engine's wall-clock and the
	// attribution is reported as unresolved.
	modelLo, modelHi = 0.85, 1.15
)

// runLayers makes the traced pass over one workload: first the workload's
// own requests, alternately untraced and traced, for the tracing overhead
// and the simulated end-to-end figures; then one timed call into each
// layer on the workload's program and plan, in stack order.
func runLayers(ctx context.Context, w workload, seed uint64, seconds float64, scratch string, gold *golden, tracePath string) (*result, error) {
	e, err := setUp(ctx, w, seed, scratch, gold)
	if err != nil {
		return nil, fmt.Errorf("set-up %s: %w", w.name, err)
	}
	defer e.close()
	dir, err := os.MkdirTemp(scratch, w.name+"-layers-")
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	defer os.RemoveAll(dir)

	r := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: true, Metrics: make(map[string]value)}
	tr := newTracer(fmt.Sprintf("%s/seed=%d", w.name, seed))
	p := &pass{e: e, tr: tr, r: r, dir: dir}
	if err := p.requests(ctx, seconds/2); err != nil {
		return nil, err
	}
	// Read before the layer calls add their own allocations, so the figure
	// is that of set-up plus requests, as in an untraced run.
	p.set("peak_rss_mb", peakRSSMB())
	if err := p.layers(ctx); err != nil {
		return nil, err
	}
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	return r, nil
}

// pass is the state of one traced pass.
type pass struct {
	e   *env
	tr  *tracer
	r   *result
	dir string
}

// set records a per-layer metric in the unit perLayer gives it.
func (p *pass) set(name string, x float64) {
	for _, d := range perLayer {
		if d.name == name {
			p.r.Metrics[name] = one(d.unit, x)
			return
		}
	}
	panic("layers: metric " + name + " is not in perLayer")
}

// inTurn times the calls one after another in rounds, each call as a span
// of its name after collecting the garbage of the call before, and returns
// each call's median duration. Taking turns makes a disturbance that
// outlasts one call fall on all of them alike, which leaves their ratios —
// the attribution — alone.
func (p *pass) inTurn(names []string, fns []func() error) ([]time.Duration, error) {
	samples := make([][]float64, len(fns))
	start := time.Now()
	for round := 0; round < modelMinRounds || (round < modelMaxRounds && time.Since(start) < modelTime); round++ {
		for i, fn := range fns {
			runtime.GC()
			d, err := p.tr.timed(names[i], fn)
			if err != nil {
				return nil, err
			}
			samples[i] = append(samples[i], float64(d))
		}
	}
	medians := make([]time.Duration, len(fns))
	for i := range fns {
		medians[i] = time.Duration(summarize(samples[i]).Median)
	}
	return medians, nil
}

// requests alternates untraced and traced requests of the workload for the
// given time. Tracing happens on this side of the call only, so its
// overhead is the cost of the span bookkeeping around a request.
func (p *pass) requests(ctx context.Context, seconds float64) error {
	var plain, traced []float64
	var last *sim.Report
	span := "sim.run"
	if p.e.w.shape == fleet {
		span = "dist.run"
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) || len(traced) < minRequests {
		s, rep, err := timeRequest(ctx, p.e)
		if p.r.count(p.e, rep, err) {
			plain = append(plain, s.wall)
		}

		runtime.GC()
		id := p.tr.begin("request")
		d, err := p.tr.timed(span, func() error {
			rep, err = p.e.serve(ctx)
			return err
		})
		p.tr.end(id)
		p.e.settle()
		if p.r.count(p.e, rep, err) {
			traced, last = append(traced, d.Seconds()), rep
		}
	}
	p.set("failed_frac", float64(p.r.Failed)/float64(p.r.Attempted))
	if last == nil || len(plain) == 0 {
		return fmt.Errorf("%s: no request succeeded", p.e.w.name)
	}
	p.set("trace.overhead_frac", summarize(traced).Median/summarize(plain).Median-1)
	p.e.accuracy(p.r, last)
	return nil
}

// layers times one call into each layer, outermost span first.
func (p *pass) layers(ctx context.Context) error {
	e, tr := p.e, p.tr
	cfg, plan := e.cfg, e.plan
	params := plan.CheckpointParams()
	root := tr.begin("layers")
	defer tr.end(root)

	// program
	spec, err := program.ByName(e.w.bench)
	if err != nil {
		return err
	}
	var prog *program.Program
	d, err := tr.timed("program.generate", func() error {
		prog, err = program.Generate(spec, e.w.length)
		return err
	})
	if err != nil {
		return err
	}
	p.set("program.generate_s", d.Seconds())

	// functional: the batch interpreter over the whole stream.
	ring := make([]functional.DynRec, 256)
	cpu := functional.New(prog)
	d, err = tr.timed("functional", func() error {
		for !cpu.Halted {
			if _, err := cpu.RunDyn(ring, uint64(len(ring))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	fnNs := ns(d) / float64(cpu.Count)
	p.set("functional.ns_per_inst", fnNs)

	// warmer: interpreter plus cache/TLB/predictor warming.
	m := uarch.NewMachine(cfg)
	cpu = functional.New(prog)
	d, err = tr.timed("warmer", func() error { return uarch.NewWarmer(m, cfg).ForwardBatch(cpu, prog.Length) })
	if err != nil {
		return err
	}
	warmNs := ns(d) / float64(cpu.Count)
	p.set("warmer.ns_per_inst", warmNs)
	p.set("warmer.self_ns_per_inst", warmNs-fnNs)
	p.set("cache.il1_miss_rate", m.Hier.IL1.Stats.MissRate())
	p.set("cache.dl1_miss_rate", m.Hier.DL1.Stats.MissRate())
	p.set("cache.l2_miss_rate", m.Hier.L2.Stats.MissRate())
	p.set("cache.dtlb_miss_rate", m.Hier.DTLB.Stats().MissRate())
	p.set("bpred.mispred_rate", m.Pred.Stats.MispredRate())

	if err := p.warmPaths(prog, cfg); err != nil {
		return err
	}

	// checkpoint: capture sweep, codec, store, materialize.
	var set *checkpoint.Set
	doCapture := func() error {
		set, err = checkpoint.Capture(ctx, prog, cfg, params)
		return err
	}
	if _, err := tr.timed("checkpoint.capture", doCapture); err != nil {
		return err
	}
	units := float64(len(set.Units))
	if units == 0 {
		return fmt.Errorf("capture selected no units")
	}
	p.set("checkpoint.snapshot_bytes_per_unit", float64(set.WarmBytes())/units)
	p.set("checkpoint.mem_bytes_per_unit", float64(set.MemBytes())/units)

	key := checkpoint.KeyFor(prog, cfg, params)
	var wire bytes.Buffer
	if d, err = tr.timed("checkpoint.encode", func() error { return checkpoint.EncodeSet(&wire, key, set) }); err != nil {
		return err
	}
	p.set("checkpoint.encode_ns_per_unit", ns(d)/units)
	p.set("checkpoint.wire_bytes_per_unit", float64(wire.Len())/units)

	storeDir := filepath.Join(p.dir, "store")
	store, err := checkpoint.OpenStore(storeDir)
	if err != nil {
		return err
	}
	if d, err = tr.timed("store.save", func() error { return store.Save(key, set) }); err != nil {
		return err
	}
	p.set("store.save_ns_per_unit", ns(d)/units)
	p.set("store.bytes_per_unit", float64(entryBytes(storeDir))/units)
	if d, err = tr.timed("store.load", func() error { _, err := store.Load(key); return err }); err != nil {
		return err
	}
	p.set("store.load_ns_per_unit", ns(d)/units)
	if d, err = tr.timed("checkpoint.decode", func() error {
		_, err := checkpoint.DecodeSet(bytes.NewReader(wire.Bytes()), key)
		return err
	}); err != nil {
		return err
	}
	p.set("checkpoint.decode_ns_per_unit", ns(d)/units)

	materialize, err := tr.timed("checkpoint.materialize", func() error {
		for i := range set.Units {
			if _, err := set.Materialize(i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.set("checkpoint.materialize_ns_per_unit", ns(materialize)/units)

	// core: the detailed model on a contiguous prefix, from cold state.
	src := &uarch.Source{CPU: functional.New(prog)}
	core := uarch.NewCore(uarch.NewMachine(cfg))
	var rs uarch.RunStats
	d, err = tr.timed("core", func() error {
		if rs, err = core.Run(src, min(prog.Length, coreInsts), nil); err != nil {
			return err
		}
		return src.Err
	})
	if err != nil {
		return err
	}
	coreNs := ns(d) / float64(rs.Insts)
	p.set("core.ns_per_inst", coreNs)
	p.set("core.ns_per_cycle", ns(d)/float64(rs.Cycles))
	p.set("core.cpi", float64(rs.Cycles)/float64(rs.Insts))

	// engine: replay alone, then the whole pipeline at one and at P workers.
	var obs []stats.Obs
	replayAt := func(workers int) func() error {
		return func() error {
			obs = obs[:0]
			return engine.ReplayRange(ctx, prog, cfg, plan.U, set, 0, len(set.Units), engine.Options{Workers: workers},
				func(u engine.RangeUnit) bool {
					if !u.Partial {
						obs = append(obs, stats.Obs{CPI: u.Res.CPI, EPI: u.Res.EPI})
					}
					return true
				})
		}
	}
	// The one-worker run is pinned to one processor: the engine overlaps
	// its sweep with replay, so only there does its wall-clock equal the
	// work done, which capture and replay are summed against.
	workers := replayWorkers()
	procs := runtime.GOMAXPROCS(0)
	runAt := func(n int) func() error {
		return func() error {
			_, err := engine.Run(ctx, prog, cfg, params, engine.Options{Workers: n})
			return err
		}
	}
	runPinned := func() error {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return runAt(1)()
	}
	model, err := p.inTurn([]string{"checkpoint.capture", "engine.replay", "engine.run.w1"},
		[]func() error{doCapture, replayAt(1), runPinned})
	if err != nil {
		return err
	}
	capture, replay, runW1 := model[0], model[1], model[2]
	p.set("checkpoint.capture_units_per_s", units/capture.Seconds())
	p.set("checkpoint.sweep_ns_per_inst", ns(capture)/float64(set.SweepInsts))
	p.set("checkpoint.capture_self_ns_per_unit", (ns(capture)-warmNs*float64(set.SweepInsts))/units)
	p.set("engine.replay_units_per_s", units/replay.Seconds())
	p.set("engine.replay_self_ns_per_unit", ns(replay-materialize)/units)

	agg := stats.NewStreamAggregator(stats.Alpha997, 0, 0)
	offer, _ := tr.timed("stats.offer", func() error {
		for i, o := range obs {
			agg.Offer(uint64(i), o)
		}
		return nil
	})
	p.set("stats.offer_ns_per_unit", ns(offer)/units)
	p.set("stats.units_merged", float64(agg.Merged()))

	p.set("engine.run_w1_s", runW1.Seconds())
	p.set("engine.overhead_frac", (runW1-capture-replay).Seconds()/runW1.Seconds())
	p.set("model.sweep_share", capture.Seconds()/runW1.Seconds())
	p.set("model.replay_share", replay.Seconds()/runW1.Seconds())
	p.set("model.sum_over_wall", (capture+replay+offer).Seconds()/runW1.Seconds())

	// sim: the same plan through the public API, serial loop and engine.
	sess, err := sim.Open(sim.WithWorkers(workers))
	if err != nil {
		return err
	}
	defer sess.Close()
	if _, err := sess.Workload(e.w.bench, e.w.length); err != nil {
		return err
	}
	planReq := func(opts ...sim.RequestOption) *sim.Request {
		opts = append([]sim.RequestOption{sim.Length(e.w.length), sim.Units(e.w.units), sim.Phase(plan.J)}, opts...)
		return sim.NewRequest(e.w.bench, opts...)
	}
	serial, err := tr.timed("smarts.serial_loop", func() error {
		_, err := sess.Run(ctx, planReq(sim.SerialLoop()))
		return err
	})
	if err != nil {
		return err
	}
	p.set("smarts.serial_loop_s", serial.Seconds())

	// The engine at P workers, bare and through a session, alternately:
	// the session's overhead is a small difference of two wall-clocks, so
	// each is a median.
	var bare, viaSim []float64
	for i := 0; i < overheadReps; i++ {
		runtime.GC()
		d, err := tr.timed("engine.run", runAt(workers))
		if err != nil {
			return err
		}
		bare = append(bare, d.Seconds())
		runtime.GC()
		d, err = tr.timed("sim.run", func() error {
			_, err := sess.Run(ctx, planReq(sim.NoStore()))
			return err
		})
		if err != nil {
			return err
		}
		viaSim = append(viaSim, d.Seconds())
	}
	runP := summarize(bare).Median
	p.set("engine.run_s", runP)
	// A speed-up measured on fewer processors than the parallelism it
	// claims is refused (reported as 0).
	speedup := 0.0
	if workers > 1 && procs >= workers {
		speedup = runW1.Seconds() / runP
	}
	p.set("engine.speedup_x", speedup)
	p.set("sim.overhead_ms", 1e3*(summarize(viaSim).Median-runP))

	// perfmodel: the paper's rate model (Section 3.4) fed the measured
	// layer rates, against the measured serial loop.
	pm := perfmodel.Params{SD: fnNs / coreNs, SFW: fnNs / warmNs, N: float64(prog.Length), NUnits: units, U: float64(plan.U)}
	pred := pm.Runtime(pm.RateFunctionalWarming(float64(plan.W)), 1e9/fnNs)
	p.set("perfmodel.pred_over_serial", pred.Seconds()/serial.Seconds())

	// dist: the same plan through a loopback fleet with its sweep primed,
	// against a local replay at the fleet's worker total.
	lb, err := startLoopback(ctx, filepath.Join(p.dir, "coord"))
	if err != nil {
		return err
	}
	defer lb.stop()
	if _, err := tr.timed("dist.prime", func() error { _, err := lb.client.Run(ctx, planReq()); return err }); err != nil {
		return err
	}
	rpcs0, bytes0 := lb.meter.rpcs.Load(), lb.meter.bytes.Load()
	var events, journal atomic.Int64
	watch := func(sim.Progress) {
		// The coordinator removes a run's journal when the run ends, so
		// its size is sampled while events arrive and the largest kept.
		if events.Add(1)%32 == 0 {
			journal.Store(max(journal.Load(), lb.journalBytes()))
		}
	}
	distRun, err := tr.timed("dist.run", func() error {
		_, err := lb.client.Run(ctx, planReq(sim.OnProgress(watch)))
		return err
	})
	if err != nil {
		return err
	}
	local, err := tr.timed("engine.replay.fleet", replayAt(fleetWorkers))
	if err != nil {
		return err
	}
	p.set("dist.overhead_x", distRun.Seconds()/local.Seconds())
	p.set("dist.rpc_count", float64(lb.meter.rpcs.Load()-rpcs0))
	p.set("dist.rpc_bytes_per_unit", float64(lb.meter.bytes.Load()-bytes0)/units)
	p.set("dist.journal_bytes_per_unit", float64(journal.Load())/units)
	p.set("dist.events_per_run", float64(events.Load()))
	return nil
}

// warmPaths times the cache hierarchy's and the predictor's warm entry
// points alone, replaying the recorded outcomes of the stream's head the
// way the warmer does (consecutive fetches of one block warm it once).
func (p *pass) warmPaths(prog *program.Program, cfg sim.Config) error {
	m := uarch.NewMachine(cfg)
	cpu := functional.New(prog)
	ring := make([]functional.DynRec, warmChunk)
	var cacheTime, predTime time.Duration
	var accesses, branches uint64
	var lastBlock uint64
	haveBlock := false
	for cpu.Count < warmReplayInsts && !cpu.Halted {
		k, err := cpu.RunDyn(ring, uint64(len(ring)))
		if err != nil {
			return fmt.Errorf("warm replay: %w", err)
		}
		recs := ring[:k]
		d, _ := p.tr.timed("cache.warm", func() error {
			for i := range recs {
				rec := &recs[i]
				addr := rec.PC * isa.InstBytes
				if block := addr >> cfg.IL1.BlockBits; !haveBlock || block != lastBlock {
					m.Hier.WarmFetch(addr)
					haveBlock, lastBlock = true, block
					accesses++
				}
				switch rec.Class {
				case isa.ClassLoad:
					m.Hier.WarmData(rec.EA, false)
					accesses++
				case isa.ClassStore:
					m.Hier.WarmData(rec.EA, true)
					accesses++
				}
			}
			return nil
		})
		cacheTime += d
		d, _ = p.tr.timed("bpred.warm", func() error {
			for i := range recs {
				rec := &recs[i]
				switch rec.Class {
				case isa.ClassBranch, isa.ClassJump, isa.ClassRet:
					m.Pred.Warm(bpred.Outcome{Op: rec.Op, PC: rec.PC, Taken: rec.Taken, Target: rec.NextPC, NextPC: rec.PC + 1})
					branches++
				}
			}
			return nil
		})
		predTime += d
	}
	p.set("cache.warm_ns_per_access", ns(cacheTime)/float64(max(accesses, 1)))
	p.set("bpred.warm_ns_per_branch", ns(predTime)/float64(max(branches, 1)))
	return nil
}

// journalBytes is the current size of the coordinator's run journals.
func (lb *loopback) journalBytes() int64 {
	paths, _ := filepath.Glob(filepath.Join(lb.storeDir, "runs", "*.runj"))
	var n int64
	for _, path := range paths {
		if info, err := os.Stat(path); err == nil {
			n += info.Size()
		}
	}
	return n
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// attribution says whether the layer times explain the engine's
// wall-clock, for the printed table.
func attribution(r *result) string {
	sum := r.Metrics["model.sum_over_wall"].Median
	if sum < modelLo || sum > modelHi {
		return fmt.Sprintf("unresolved (layer times sum to %.2f of engine.run_w1_s, outside %.2f-%.2f)", sum, modelLo, modelHi)
	}
	return fmt.Sprintf("resolved (layer times sum to %.2f of engine.run_w1_s)", sum)
}
