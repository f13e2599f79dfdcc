package sim

import (
	"sync"
	"time"
)

// EventKind classifies a progress event.
type EventKind int

// Event kinds, in the order a run emits them.
const (
	// EventRunStart opens a run (or one stage of a procedure run).
	EventRunStart EventKind = iota
	// EventUnitCaptured reports sweep progress: Captured launch
	// snapshots have entered the pipeline. Store and cache hits and
	// multi-offset sweeps report the total once.
	EventUnitCaptured
	// EventUnitReplayed reports measurement progress: Replayed units
	// have been folded, in stream order, into the deterministic
	// estimate, whose current value is Estimate.
	EventUnitReplayed
	// EventRunDone closes a run (or one stage); Estimate is the final
	// CPI estimate and Cached reports whether the sweep came from the
	// checkpoint store.
	EventRunDone
	// EventShardStart opens one shard of a distributed run: the unit
	// range [Shard, Shards) metadata is carried in Shard/Shards, the
	// range size in Total. Only distributed runs emit shard events.
	EventShardStart
	// EventShardDone closes one shard of a distributed run; Replayed is
	// the number of units the shard streamed back.
	EventShardDone
	// EventRetry reports a transient distributed-service failure being
	// retried with backoff: Note names the operation, Attempt the attempt
	// number just failed (1-based). Only distributed runs emit it.
	EventRetry
	// EventFallback reports the distributed client degrading to a local
	// in-process run after exhausting its retries; Note carries the
	// coordinator error that forced the fallback.
	EventFallback
	// EventReattach reports the distributed client reconnecting to its
	// run's progress stream after losing the coordinator connection
	// (e.g. across a coordinator restart); Attempt counts the reconnect
	// attempts, Note carries the error that severed the stream. The run
	// continues from its journaled state — no work is redone beyond the
	// coordinator's recovery resume point.
	EventReattach
	// EventQuarantine reports the coordinator excluding a worker from
	// dispatch after its shard stream failed integrity verification
	// (corrupt unit digest); Note names the worker. The shard is re-run
	// on another worker, so the report is unaffected.
	EventQuarantine
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventRunStart:
		return "start"
	case EventUnitCaptured:
		return "captured"
	case EventUnitReplayed:
		return "replayed"
	case EventRunDone:
		return "done"
	case EventShardStart:
		return "shard-start"
	case EventShardDone:
		return "shard-done"
	case EventRetry:
		return "retry"
	case EventFallback:
		return "fallback"
	case EventReattach:
		return "reattach"
	case EventQuarantine:
		return "quarantine"
	}
	return "unknown"
}

// Progress is one typed progress event. Events replace the log-print
// scraping of the pre-sim CLIs: a consumer can render a live unit
// counter and the tightening confidence interval from them alone.
type Progress struct {
	// Kind classifies the event.
	Kind EventKind
	// Stage distinguishes the sampling steps of compound runs:
	// "sample" for plain and phase runs, "initial" and "tuned" for the
	// two steps of the procedure.
	Stage string
	// Offset is the systematic phase offset the event belongs to
	// (meaningful for multi-offset requests during replay).
	Offset uint64
	// Captured is the cumulative number of launch snapshots taken by
	// the functional sweep.
	Captured int
	// Replayed is the cumulative number of units folded into the
	// stream-order estimate.
	Replayed int
	// Estimate is the current CPI estimate over the folded prefix
	// (valid on EventUnitReplayed and EventRunDone with Replayed >= 1).
	Estimate Estimate
	// Cached reports that launch states were loaded from the
	// checkpoint store instead of swept (EventRunDone).
	Cached bool
	// Population is the number of sampling units the workload divides
	// into (workload length / U) — the denominator the sweep walks.
	Population uint64
	// Total is the expected number of sampled units for the run (the
	// plan's systematic selection over Population), known up front; the
	// captured count can fall short only when the program halts early.
	Total int
	// ETA estimates the remaining time of the event's stage from its
	// observed rate: Captured over Total on EventUnitCaptured, Replayed
	// over Total on EventUnitReplayed. Zero when no rate is established
	// yet.
	ETA time.Duration
	// Shard and Shards identify the emitting shard of a distributed run
	// (shard events and per-unit events forwarded from workers).
	Shard, Shards int
	// Attempt is the 1-based attempt count of the operation an
	// EventRetry reports.
	Attempt int
	// Note carries human-readable context: the retried operation and its
	// error on EventRetry, the coordinator error on EventFallback.
	Note string
}

// ProgressFunc receives progress events. Callbacks are serialized per
// request (never called concurrently for one Run call) but must be
// fast: they run on the engine's sweep and collector goroutines.
type ProgressFunc func(Progress)

// progressSink fans a run's events to the session- and request-level
// callbacks, serializing them under one mutex (sweep and collector
// goroutines both emit).
type progressSink struct {
	mu  sync.Mutex
	fns []ProgressFunc
}

func newProgressSink(fns ...ProgressFunc) *progressSink {
	sink := &progressSink{}
	for _, fn := range fns {
		if fn != nil {
			sink.fns = append(sink.fns, fn)
		}
	}
	if len(sink.fns) == 0 {
		return nil
	}
	return sink
}

func (p *progressSink) emit(ev Progress) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, fn := range p.fns {
		fn(ev)
	}
}
