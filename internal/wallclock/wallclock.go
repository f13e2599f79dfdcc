// Package wallclock is the project's sanctioned escape hatch for
// reading physical time in determinism-critical packages.
//
// The simlint determinism analyzer flags every direct time.Now /
// time.Since / time.Until call in the engine, the checkpoint store,
// the fleet, the stats layer, and sim: bit-identical results must not
// depend on the wall clock. Two domains legitimately do, and they
// route through this package instead:
//
//   - telemetry: elapsed-time reporting (Report.Elapsed,
//     Summary.SweepTime, progress events) that is carried alongside
//     results but never read back into them;
//   - liveness: heartbeat deadlines and retry backoff
//     in the fleet, where physical time is the point — it decides
//     when to give up on a peer, never what a shard computes.
//
// Keeping these reads behind one import makes the rule auditable:
// `grep wallclock.` lists every place physical time enters the
// determinism-scoped code, and a raw time.Now anywhere else is a lint
// failure. One-off exceptions that do not fit either domain should
// use a //simlint:ordered <reason> annotation instead of this
// package, so the reason is recorded at the call site.
package wallclock

import "time"

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
