// Package repro is a from-scratch Go reproduction of "SMARTS:
// Accelerating Microarchitecture Simulation via Rigorous Statistical
// Sampling" (Wunderlich, Wenisch, Falsafi, Hoe — ISCA 2003).
//
// # Quickstart: the sim package
//
// The supported API is the top-level sim package — a context-aware,
// session-based front door covering every kind of sampling run:
//
//	sess, err := sim.Open(sim.WithStore(dir))   // long-lived session
//	if err != nil { ... }
//	defer sess.Close()
//
//	rep, err := sess.Run(ctx, sim.NewRequest("gccx",
//		sim.Length(4_000_000),
//		sim.Units(400),
//	))
//	fmt.Println("CPI:", rep.CPI)                // estimate ± CI
//
// One request type reaches plain sampled runs, multi-offset phase
// runs (sim.Phases), the paper's two-step estimation procedure
// (sim.Calibrate, the one way to ask for a ±eps confidence interval),
// and the experiment registry (sim.NewExperiment). Every path honors
// context cancellation and deadlines; sessions deduplicate concurrent
// functional sweeps for the same checkpoint key (singleflight) and
// emit typed progress events (sim.OnProgress). Below it, a run is two
// declarations and nothing else: a smarts.Plan is the sampling design
// (U, W, k, j, warming mode — what the paper defines a run by) and an
// engine.Options is how it executes (workers, store, cache, progress
// observers). The session builds one of each per request and runs the
// plan itself (engine.Run, or CaptureSet and RunSet for several phase
// offsets, converted by smarts.FromEngine), every figure and table
// included: internal/experiments samples through the request's runner
// (experiments.Sampler), so there is one place that decides how a plan
// executes.
//
// # Architecture
//
// The mechanism layers live under internal/: the SMARTS sampling
// framework (internal/smarts), the detailed out-of-order superscalar
// substrate (internal/uarch with internal/cache, internal/bpred,
// internal/energy), the functional simulator and synthetic
// SPEC2K-archetype workload suite (internal/functional,
// internal/program), the statistics machinery (internal/stats), and
// the SimPoint baseline (internal/simpoint).
//
// Sampling runs execute either on the classic in-place serial loop
// (sim.SerialLoop, smarts.SerialLoop — the paper's original execution,
// kept as the oracle) or on the
// checkpointed parallel engine: internal/checkpoint captures a launch
// snapshot per sampling unit (architectural state, copy-on-write
// memory image, functionally warmed cache/TLB/predictor tables) in one
// functional sweep, and internal/engine replays the units across a
// worker pool with deterministic stream-order aggregation — the same
// estimate, bit for bit, at any worker count. Each replay worker keeps
// one machine, core and memory while it runs, reset to exactly their
// as-constructed state between units, and one rolling
// launch state (checkpoint.Materializer) it advances by the deltas
// since its previous unit — so launching a unit costs its deltas plus
// one copy of the warm arrays, not a rebuilt machine and a keyframe's
// whole chain, and a run's cost keeps the shape of the paper's model:
// fast-forward plus n·(U+W) detailed instructions, no per-unit
// constant. A worker that ends hands its machine to the next request's
// pool, and a sweep or a store read likewise its own machinery
// (internal/freelist), so there is no per-request constant either. The
// engine owns the one
// worker pool and the one stream-order fold (engine.Merger) every path
// uses, the distributed service included, so that identity holds by
// construction rather than by keeping copies in step.
//
// The engine is a streaming pipeline: the sweep hands each snapshot to
// the workers the moment it is captured, so wall clock approaches
// max(sweep, replay/workers) rather than their sum. Sweeps are
// persisted to an on-disk checkpoint store (sim.WithStore, the CLIs'
// -ckpt-dir) keyed by workload, plan, and warm-relevant machine
// geometry, so one functional sweep is shared across runs, across
// machine configs that differ only in timing, width, or energy
// parameters, and across concurrent requests (the session's
// singleflight). One sweep can also capture several systematic phase
// offsets at once (sim.Phases), which the bias experiments use to pay
// one sweep for all phases. Storeless sessions park completed sweeps
// in a session-scoped in-memory cache, so they get the same reuse.
// Snapshots are delta-encoded end to end under one shared
// snapshot/delta-chain contract (internal/delta): dirty-block deltas
// for the warmed structures, dirty-page deltas for memory, periodic
// keyframes (checkpoint.DefaultKeyframe, every 64th unit) bounding
// reconstruction chains, in memory and in the store's format alike (one
// format version, every record CRC-sealed on its own; an entry in any
// other version is a miss). An entry is a pure function of its key — it
// holds no wall-clock (its time slots are written as 0), so every capture
// of one key, resumed or not, commits the same bytes; what a run
// measures lives in one per-run wallclock.Timing.
// Every variant — streamed, store- or cache-loaded, multi-offset,
// sharded across a fleet, cancelled-and-rerun — produces bit-identical
// estimates.
//
// # The functional sweep
//
// The functional sweep itself is the one phase that does not scale
// with workers — functional warming walks the whole dynamic stream in
// order, so every unit launches from caches and predictors warmed by
// the entire prefix (the paper's Section 4 argument, whose residual
// bias Table 5 measures). The functional interpreter runs a
// pre-decoded fast path: instructions are decoded once into a dense
// side table and the sweep executes from it in a batch loop
// (internal/functional RunWarm) that records the instructions warming
// acts on — loads, stores, control and the first instruction of each
// new fetch block, about half of the stream (44 % on gccx) — with their dynamic
// outcomes (fetch PC, effective address, branch direction and target)
// and zero allocations on the hot path; the instructions it leaves out
// are ones warming would skip. The capture sweep runs as two stages on
// two cores: an interpreter goroutine executes the stream into a fixed
// 1 MB ring of record batches (each cut at 4,096 records or FFChunk
// instructions, whichever comes first) and captures each unit's
// registers and memory at its launch point, inline in the batch, while
// the sweep goroutine warms the caches, TLBs and predictor from the
// batches (uarch Warmer.Warm, one loop whose predictor and cache paths
// each take one pass) and adds each unit's warm state. Warming reads
// nothing but the recorded outcomes, in stream order, so moving the
// interpretation to another core changes no warmed bit: every unit is
// the one-goroutine sweep's, and a sweep costs max(interpret, warm) per
// instruction instead of their sum.
//
// Sweeps are also crash-safe: with a store attached, an in-progress
// sweep journals its units as a *.partial file, flushed at every
// keyframe (neither loaded as an entry nor evicted), and a rerun of the
// same request resumes from the journal's last unit instead of
// resweeping: every unit record carries the sweep state a resume needs,
// and every record its own seal. The journal is the sweep's store entry
// before it commits: one file, renamed from <hash>.partial to
// <hash>.ckpt once the End record is written. The resumed unit stream
// is bit-identical to an uninterrupted sweep, and a damaged journal
// degrades to the units before the damage, or to a cold sweep — never
// a wrong result.
//
// # Distributed sampling
//
// internal/dist scales the same runs across machines: a coordinator
// (cmd/simd coordinator) splits a run's sampled units into contiguous
// shard ranges, a worker fleet (cmd/simd worker) replays them through
// the same engine, and a stream-order merge reproduces the
// single-machine report bit for bit at any (machine × worker) count —
// including worker failure with shard reassignment and run
// cancellation. The coordinator runs the one functional sweep per
// checkpoint key itself, before it dispatches shards, through the
// engine's local acquisition (memory cache, then the optional on-disk
// store, then a sweep journaled into that store); workers fetch the set
// from it, with the store codec as the wire encoding. The
// fleet is fault-tolerant end to end: a coordinator killed mid-sweep
// resumes the store journal when it restarts; RPCs retry with backoff
// and jitter; workers heartbeat for liveness; and dist.Client — which has the same
// Run(ctx, *Request) shape as sim.Session, so callers swap local for
// distributed execution with one constructor (examples/distributed) —
// can degrade to a bit-identical in-process run when the coordinator
// is unreachable.
//
// The coordinator itself is crash-safe: accepted runs are journaled
// (write-ahead) under the checkpoint store, runs get stable IDs, and
// clients re-attach to a restarted coordinator's recovered runs from
// their last received event. The failure model, end to end:
//
//	what dies                what happens                        what is re-done
//	worker mid-shard         shard suffix requeued to peers      nothing (contiguous prefix kept)
//	coordinator mid-sweep    restart resumes the store journal   sweep since last flushed unit
//	coordinator mid-run      restart replays run journal         unmerged shard suffixes only
//	client's connection      client re-attaches by run ID        nothing (stream resumes from last event)
//	a bit, anywhere          CRC-32C digest catches it           corrupt frame's shard suffix, on another worker
//	everything at once       journals on disk are the truth      the unjournaled tail, never the whole run
//
// In every row the final report stays bit-identical to an
// uninterrupted local run, and sealed checkpoints (every store record's
// own checksum, scrubbed offline by simd fsck) make
// silent corruption detectable rather than absorbable.
//
// # Project invariants and how simlint enforces them
//
// The guarantees above are load-bearing — "bit-identical at any
// worker count" and "0 allocs/inst on the sweep hot loops" are easy to
// break with one innocent-looking line. cmd/simlint is an in-repo,
// stdlib-only static analyzer suite (go/ast + go/types, no external
// dependencies) that CI runs between vet and build; it exits nonzero
// on any violation, printing file:line: diagnostics. The invariants it
// enforces:
//
//   - determinism: packages whose outputs must be bit-identical
//     (internal/smarts, checkpoint, engine, dist, stats, delta, and the
//     simulated core) must not let map iteration order, wall-clock
//     reads, or the global math/rand stream shape results. Map
//     iteration that appends into a result is flagged unless the
//     result is sorted afterward; time.Now is flagged unless routed
//     through internal/wallclock, the documented allowlist for
//     telemetry (elapsed-time reporting, collected in one
//     wallclock.Timing per run) and liveness (worker heartbeats,
//     backoff) — readings that are reported but never fold into an
//     estimate or a store entry.
//   - hotpath: functions annotated //simlint:hotpath (the per-
//     instruction sweep and replay paths: mem/cache/TLB/bpred accesses,
//     functional Step, delta Mark; and the per-unit launch path: the
//     snapshots' Apply and CopyFrom, the structures' Restore and Reset)
//     must be allocation- and
//     dispatch-free — no make/new/append/closures/defer/interface
//     boxing/fmt — and may only call other hot-path functions or
//     declared //simlint:coldpath <reason> rare paths.
//   - ctx: exported blocking APIs in the service layers (sim, engine,
//     checkpoint, dist) take a context.Context first, don't bury it in
//     structs, and long loops with I/O or RPC calls stay
//     cancellation-aware (ctx check, select, or channel receive).
//   - storekey: structs annotated //simlint:keystruct <HashFunc> (the
//     checkpoint Key/Params and the warm-relevant cache/bpred/uarch
//     geometry) must have every field either referenced by the named
//     key-hash function or annotated //simlint:nonkey <reason> — so
//     adding a config knob without folding it into the store key (a
//     silent cache-aliasing bug) fails CI.
//   - errwrap: fmt.Errorf uses %w (not %v) for error operands so
//     errors.Is/As keep matching, and the checkpoint store/journal and
//     dist layers never discard an error with _ undocumented.
//   - padding: a struct with a //simlint:hotpath pointer-receiver
//     method (the machine, core, caches, TLBs, predictor, energy meter,
//     CPU and memory that each simulation goroutine writes per
//     instruction) must start and end with a cacheline.Pad field or
//     carry //simlint:unpadded <reason> — so a replay worker never
//     shares a cache line with another worker or with the sweep, and
//     wall clock stays max(sweep, replay/workers) (internal/cacheline).
//   - immutable: a struct annotated //simlint:immutable
//     (program.Program) is never written outside its own package — no
//     field or element assignment, no &field, no copy/append/clear into
//     one — and never copied by value. A Program derives its store-key
//     digest, its initial memory image (which every CPU shares
//     copy-on-write) and its predecoded code once, on first use; a
//     write after that would leave them stale, and a by-value copy
//     would carry a stale memo (go vet's copylocks rejects that too).
//
// One invariant is held by tests rather than by simlint: reused
// machinery is invisible. A replay worker's launcher, a sweep's machine
// and warmer, its record ring and a streamed store read's rolling state
// outlive their request in bounded, process-wide free lists
// (internal/freelist). What goes back on a list must drop every
// reference to its request — program, units, pages, set — so a list
// never keeps a finished run alive, and must be reset by the same resets
// that make one unit's launch independent of the last: Machine.Reset,
// Core.Reset and Warmer.Reset to the constructed state, Memory.Restore
// of an empty image, and Materializer.Reset, which forgets the position
// and keeps the buffers, so the next request reseeds from a keyframe.
// The lists are bounded at twice GOMAXPROCS objects each and are not a
// sync.Pool, which empties at every garbage collection: whether a
// request rebuilt its machines, and what it allocated, would then depend
// on when the collector ran. sim.TestReuseIsInvisible, the engine's
// TestBuildCountsStayFixed and TestFreeListsPinNoRun hold this.
//
// Three things a run produces have lifetimes of their own. A streamed
// store read decodes pages into its reader's page arena, reused by the
// reader's next read once the replay it fed has returned. A sweep that
// nothing retains (a storeless or store-writing run with no cache) carves
// each keyframe interval's warm snapshot and deltas from a warm arena
// (checkpoint.Params.Recycle), held by the sweep until it has pushed the
// interval's last unit and by each unit until its launch returns
// (Unit.Release); the last release lists the arena for the next
// interval, at most 64 MiB of them. Everything else a run's units carry
// — memory pages, and the warm state of every unit a Set, a cache, a
// decoded entry or a resumed journal keeps — is the garbage collector's,
// alive as long as whoever holds the unit. The checkpoint package's
// Lease tests poison every released warm arena before its reuse, so a
// read past a release flips a result.
//
// Suppressions are never bare: //simlint:coldpath, ordered, noctx,
// nonkey, discard, and unpadded all require a reason string, and a
// directive meta-analyzer rejects unknown verbs and missing reasons. The
// suite lives in internal/lint with a seeded-violation test module under
// internal/lint/testdata; run it locally with
//
//	go run ./cmd/simlint ./...
//
// Executables are under cmd/ (their shared flags live in
// sim/simflag), runnable examples under examples/ (examples/service
// shows the concurrent session usage, examples/distributed the
// loopback fleet), and the benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// evaluation. See README.md, DESIGN.md, and EXPERIMENTS.md.
package repro
