// Package sim is the public front door to the SMARTS sampling
// simulator: one context-aware, session-based API covering every kind
// of sampling run the repository supports.
//
// A Session is a long-lived service object owning the shared machinery
// — the on-disk checkpoint store, generated workloads, experiment
// caches, and execution defaults. Open it once, run many requests
// against it, concurrently if desired:
//
//	sess, err := sim.Open(sim.WithStore(dir))
//	if err != nil { ... }
//	defer sess.Close()
//
//	rep, err := sess.Run(ctx, sim.NewRequest("gccx",
//		sim.Length(4_000_000),
//		sim.Units(400),
//	))
//	fmt.Println("CPI:", rep.CPI)
//
// One request type reaches every run mode:
//
//   - a plain sampled run (the default): systematic sampling with
//     functional warming on the checkpointed parallel engine;
//   - a multi-offset phase run (Phases): several systematic phase
//     offsets measured from one shared functional sweep;
//   - the paper's full two-step estimation procedure (Calibrate): run
//     at n_init, check the achieved confidence interval, resize to
//     n_tuned from the measured coefficient of variation, rerun;
//   - an experiment-registry run (NewExperiment): regenerate one of
//     the paper's figures or tables.
//
// Every path honors the context: cancellation or deadline expiry stops
// the functional sweep mid-gap, stops the replay worker pool after
// in-flight units, aborts any staged checkpoint-store entry (the store
// never commits a partial sweep), and returns ctx.Err().
//
// Sessions deduplicate concurrent sweeps: when a store is attached and
// two requests need the same (workload, plan, warm geometry) sweep at
// once, one request performs it and the other waits for the committed
// entry — two simultaneous requests for one workload pay one sweep.
//
// Progress is observable through typed events (OnProgress /
// WithProgress): units captured by the sweep, units folded into the
// deterministic stream-order estimate, and the current confidence
// interval, replacing log-print scraping.
//
// Results are bit-identical to the historical entry points in
// internal/smarts — Result, ProcedureResult, and friends are the same
// types — at any worker count, with the store on or off. What is left
// in internal/smarts (plan math, result types, the in-place SerialLoop
// oracle and the engine-backed RunSampled*Context functions this
// package calls) is not a second public way in.
package sim
