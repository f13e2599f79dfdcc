// Package wallclock is the project's sanctioned escape hatch for
// reading physical time in determinism-critical packages.
//
// The simlint determinism analyzer flags every direct time.Now /
// time.Since / time.Until call in the engine, the checkpoint store,
// the fleet, the stats layer, and sim: bit-identical results must not
// depend on the wall clock. Two domains legitimately do, and they
// route through this package instead:
//
//   - telemetry: elapsed-time reporting (Report.Elapsed, Timing,
//     progress events) that is carried alongside results but never
//     read back into them, nor written into the checkpoint store;
//   - liveness: heartbeat deadlines and retry backoff
//     in the fleet, where physical time is the point — it decides
//     when to give up on a peer, never what a shard computes.
//
// Keeping these reads behind one import makes the rule auditable:
// `grep wallclock.` lists every place physical time enters the
// determinism-scoped code, and a raw time.Now anywhere else is a lint
// failure. One-off exceptions that do not fit either domain should
// use a //simlint:ordered <reason> annotation instead of this
// package, so the reason is recorded at the call site. Timing is the one
// record a run's measured durations live in; the data a sweep produces,
// the store entry included, holds none.
package wallclock

import "time"

// Timing is everything one run measures of the wall clock, each part
// this run's own (0 for a part it did not execute): the capture Sweep
// (a resumed sweep's continuation only; 0 when the run reused a sweep),
// the sweep's warm stage waiting on its interpreter (WarmWait) and the
// interpreter parked on the warm stage (InterpPark), the CPU time summed
// over detailed replays (Detailed, about the worker count times their
// wall-clock) and the end-to-end Wall.
type Timing struct {
	Sweep, WarmWait, InterpPark, Detailed, Wall time.Duration
}

// Now returns the current wall-clock time.
func Now() time.Time { return time.Now() }

// Since returns the wall-clock time elapsed since t.
func Since(t time.Time) time.Duration { return time.Since(t) }

// Until returns the wall-clock duration until t.
func Until(t time.Time) time.Duration { return time.Until(t) }

// ETA extrapolates the remaining time of a stage from its observed
// rate: done of total steps since start. Zero when nothing is done yet
// or nothing remains.
func ETA(start time.Time, done, total int) time.Duration {
	if done <= 0 || total <= 0 || done >= total {
		return 0
	}
	return time.Duration(float64(Since(start)) / float64(done) * float64(total-done))
}
