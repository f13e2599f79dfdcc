// Package dist turns the sampling service into a distributed one: a
// coordinator shards a sim.Request's sampled units into contiguous
// ranges, dispatches them to workers over HTTP/JSON (stdlib only), and
// merges the shard streams through the very stream-order fold a single
// machine uses (engine.Merger) — so the final report is bit-identical to
// a local engine run at any (machine × worker) count.
//
// # Why sharding is free
//
// SMARTS sampling units are statistically independent, and the
// checkpointed engine (internal/engine) makes them computationally
// independent too: each unit's measurement is a pure function of its
// captured launch snapshot. A shard therefore needs nothing from its
// neighbors — only the shared snapshot Set and its [lo, hi) range of
// stream positions — and the merge is a pure reordering problem. This
// package does not solve it: a worker replays its range with
// engine.ReplayRange (the local engine's pool), and the coordinator
// offers every verified unit, converted from its wire form, to an
// engine.Merger — the type engine.Run itself folds through, which alone
// knows the partial-unit cut and the accounting. Units are merged by stream index, never by arrival order,
// so worker death, retries, and scheduling cannot perturb the estimate.
//
// # Protocol
//
// The coordinator serves:
//
//	POST /v1/runs            serialized request in; replies 202 with the
//	                         run's stable ID and the coordinator epoch.
//	                         The run executes asynchronously — its
//	                         lifetime is the coordinator's, not the
//	                         connection's.
//	GET  /v1/runs/{id}/stream?from=N&epoch=E
//	                         NDJSON envelope stream out: every event
//	                         carries a sequence number, and ?from=N
//	                         resumes after the last envelope the client
//	                         received — progress events, then the final
//	                         report (or an error) as the last record.
//	DELETE /v1/runs/{id}     cancel the run.
//	POST /v1/register        worker announces its base URL and optional
//	                         heartbeat interval.
//	POST /v1/heartbeat       worker liveness beat; a worker that
//	                         announced an interval and then stays silent
//	                         for three intervals leaves the dispatch set
//	                         until it beats again.
//	GET  /v1/sweeps/{hash}   fetch the sweep an active run of the key
//	                         holds, encoded in the checkpoint store's
//	                         entry byte stream (404 = none).
//	GET  /v1/healthz         readiness.
//
// Workers serve:
//
//	POST /v1/shards        shard assignment in, NDJSON record stream
//	                       out: one record per replayed unit in
//	                       ascending stream order, then a trailer (or
//	                       an error record); retried sweep fetches
//	                       travel as retry records.
//	GET  /v1/healthz       readiness.
//
// Sweeps travel in the exact bytes Store.Save writes to disk
// (checkpoint.EncodeSet/DecodeSet), so the wire format is the store
// format and decoding validates the content-addressed key end to end.
// Both sides resolve the plan independently with sim.ResolvePlan and
// derive the same checkpoint.Key, so only the request travels — never
// the plan, the program, or unit indices. Request bodies are JSON
// control messages, refused with 413 past 1 MiB.
//
// # The coordinator sweeps
//
// The functional sweep is the one serial, whole-stream cost; every unit
// after it is independent. The coordinator therefore acquires each
// run's snapshot set itself, before it dispatches a shard, exactly as a
// local run's multi-offset path does (engine.CaptureSet): its memory
// cache, then its store, then a sweep journaled into the store as it
// runs. Concurrent runs of one key share one acquisition — the second
// waits on the first and reuses its set, or resumes its journal if the
// first was cancelled — and the set stays pinned for
// GET /v1/sweeps/{hash} while any of them runs. Workers never sweep: a
// worker without the set in its own cache fetches it, with retries, and
// replays. A coordinator killed mid-sweep leaves the store's
// <hash>.partial beside the run journal; its successor recovers the run
// and resumes the sweep through engine.Sweep from the last journaled
// unit, bit-identically. MaxActive bounds how many sweeps run at once.
//
// # Failure and retry
//
// A worker that dies mid-shard is marked dead and its range is
// requeued for the surviving workers. Workers stream units in
// ascending stream order, so the received prefix of a broken stream is
// contiguous; the requeued range resumes exactly after it, and every
// stream position is still offered to the aggregator exactly once.
// Errors the simulation itself reports (as opposed to transport
// failure) abort the run — they are deterministic and would fail on
// any worker. If every worker dies, the run fails with an error
// rather than hanging.
//
// Worker→coordinator RPCs (register, heartbeat, sweep fetch) retry
// transient failures with capped exponential backoff plus
// deterministic jitter; each retried attempt surfaces to the run
// as a sim.EventRetry progress event naming the operation and attempt.
// dist.Client retries its initial run request the same way and, when a
// Fallback session is configured, degrades to an in-process run (after
// a sim.EventFallback event) if the coordinator stays unreachable —
// bit-identical by construction, since local and distributed runs
// share the engine. Deterministic rejections (4xx) neither retry nor
// fall back.
//
// The crash/resume matrix is tested through a deterministic
// fault-injection harness (Faults): kill-the-coordinator mid-sweep and
// mid-merge, kill-mid-stream, corrupt-frame and drop/delay RPC trigger
// at exact occurrence counts, so sweep resume, coordinator recovery and
// quarantine run as ordinary unit tests instead of wall-clock races.
//
// # Surviving the coordinator
//
// With a store attached, the coordinator is no longer a single point
// of run loss. Every accepted run writes a write-ahead journal
// (runs/<id>.runj under the store directory, installed by atomic
// temp+rename): the serialized request, the resolved spec (so recovery
// never re-resolves against drifted defaults), the exact shard split,
// then one checksummed line per merged unit and per completed shard
// trailer, flushed as they land. A restarted coordinator replays each
// journal's longest valid prefix: the run's sweep is acquired again (a
// store hit, or a resume of the interrupted sweep's journal), merged
// units are re-offered to a
// fresh engine.Merger (offer order is irrelevant — the merge is a pure
// function of the offered set), finished shards are absorbed from
// their trailers, and each surviving shard is requeued from the first
// stream position after its journaled contiguous prefix. Exactly-once
// offer semantics hold across the crash: a journaled unit is never
// re-dispatched, an unjournaled one is never skipped, and the final
// report is bit-identical to an uninterrupted run. The journal is
// removed before the terminal event is published, so a finished run
// can never be resurrected. A journal written by an older coordinator
// whose request carried an early-termination target (a wire field that
// no longer exists) recovers as a run of its full plan: the header
// decodes with the unknown field ignored.
//
// A run's lifecycle through a crash, client-side: POST /v1/runs
// returns {ID, Epoch}; the client follows GET /v1/runs/{id}/stream.
// When the coordinator dies the stream breaks; the client re-attaches
// with backoff (surfacing each attempt as a sim.EventReattach progress
// event), presenting its last received sequence number and the old
// epoch. The restarted coordinator has a new epoch, so the sequence
// numbers do not line up — it streams the recovered run from zero, and
// the terminal record is still delivered exactly once, because only
// the terminal record decides the run. Re-attach never degrades to a
// local rerun: once the coordinator accepted the run it may still be
// executing, and a silent local redo could double the work. Only run
// creation falls back (dist.Client.Fallback); a 404 on attach means
// the run is truly lost (no store, or terminal before the journal
// existed) and surfaces as a permanent error.
//
// Recovery state machine, coordinator-side:
//
//	accepted   → journal header written; run registered; waits for a
//	             MaxActive slot (queue rules unchanged).
//	running    → shard split journaled; the sweep acquired (journaled
//	             in the store as it runs); then one line per merged
//	             unit (journal before offer: write-ahead), one per
//	             trailer.
//	crashed    → whatever the kernel kept of the journal is the truth.
//	recovered  → journal compacted to its verified prefix, spec rebuilt
//	             from the header, merged prefix re-offered, shard
//	             suffixes requeued; waits for workers to re-register
//	             (heartbeats 404 on the new incarnation, so live
//	             workers come back within a poll interval).
//	terminal   → journal removed, then the report/error envelope is
//	             published and the run's event history is pruned to it.
//
// # End-to-end result integrity
//
// Every measurement crosses the wire sealed: workers stamp each unit
// record with a CRC-32C digest over its measurement fields, the
// coordinator verifies the digest before the unit may enter the merge
// or the journal, and the journal loader re-verifies it at recovery —
// so a flipped bit in transit, in memory, or on disk cannot silently
// perturb the estimate. A digest mismatch quarantines the worker
// (sticky: heartbeats do not un-quarantine it; sim.EventQuarantine
// surfaces the eviction), requeues the shard's unverified suffix to
// the surviving workers, and the run completes bit-identical. The
// checkpoint store applies the same discipline to sweeps at rest:
// every record of an entry or journal carries its own CRC-32C, and
// checkpoint.Store.Verify (the simd fsck subcommand) scrubs a store
// offline.
//
// # Admission
//
// Admission control bounds concurrent runs (MaxActive) with a bounded
// wait queue (MaxQueue) honoring context deadlines; beyond both, runs
// fail fast with ErrBusy.
package dist
