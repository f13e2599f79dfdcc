package engine_test

import (
	"context"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/uarch"
)

// BenchmarkPipelineOverhead prices streaming the sweep into the replay
// pool against running the two back to back, on replay-dense's plan
// (gccx 400k instructions, every unit measured, W=2000, 2 workers). Per
// op it runs a streamed Run, then CaptureSet followed by ReplayRange
// over the whole set — the same sweep and the same replays — and
// reports each schedule's wall clock and process CPU time (getrusage,
// every thread, the collector's included). Streaming should cost no
// more CPU than the split schedule: the difference is what overlapping
// the sweep with the workers costs, false sharing between their
// structures included.
func BenchmarkPipelineOverhead(b *testing.B) {
	cfg := uarch.Config8Way()
	p := genProg(b, "gccx", 400_000)
	params := checkpoint.Params{U: 1000, W: 2000, K: 1, FunctionalWarm: true}
	opt := engine.Options{Workers: 2}
	ctx := context.Background()

	var streamWall, streamCPU, splitWall, splitCPU time.Duration
	for b.Loop() {
		w, c := wallAndCPU(b, func() error {
			_, err := engine.Run(ctx, p, cfg, params, opt)
			return err
		})
		streamWall, streamCPU = streamWall+w, streamCPU+c
		w, c = wallAndCPU(b, func() error {
			set, _, err := engine.CaptureSet(ctx, p, cfg, params, opt)
			if err != nil {
				return err
			}
			return engine.ReplayRange(ctx, p, cfg, params.U, set, 0, len(set.Units), opt,
				func(engine.RangeUnit) bool { return true })
		})
		splitWall, splitCPU = splitWall+w, splitCPU+c
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(streamWall), "run-wall-ms/op")
	b.ReportMetric(perOp(streamCPU), "run-cpu-ms/op")
	b.ReportMetric(perOp(splitWall), "split-wall-ms/op")
	b.ReportMetric(perOp(splitCPU), "split-cpu-ms/op")
}

// wallAndCPU runs f and returns the wall clock and the process CPU time
// (user plus system, all threads) it took.
func wallAndCPU(b *testing.B, f func() error) (wall, cpu time.Duration) {
	b.Helper()
	cpu0 := processCPU(b)
	start := time.Now()
	if err := f(); err != nil {
		b.Fatal(err)
	}
	return time.Since(start), processCPU(b) - cpu0
}

func processCPU(b *testing.B) time.Duration {
	b.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkSweepHandoff measures how far the sweep's two stages fall
// short of overlapping on cold-sparse's plan (gccx 12M instructions,
// k=166 so 72 units, W=2000, 2 workers, streamed, no store): per op one
// streamed Run, reporting the time its warm stage waited on an empty
// ring for the interpreter and the time the interpreter was parked on a
// full ring. The warm stage waits when a replay unit holds the second
// core and the interpreter falls behind; the interpreter parks when
// warming is the slower side.
func BenchmarkSweepHandoff(b *testing.B) {
	cfg := uarch.Config8Way()
	p := genProg(b, "gccx", 12_000_000)
	params := checkpoint.Params{U: 1000, W: 2000, K: 166, FunctionalWarm: true}
	opt := engine.Options{Workers: 2}
	ctx := context.Background()

	var warmWait, interpPark time.Duration
	for b.Loop() {
		res, err := engine.Run(ctx, p, cfg, params, opt)
		if err != nil {
			b.Fatal(err)
		}
		warmWait += res.Timing.WarmWait
		interpPark += res.Timing.InterpPark
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(warmWait), "warm-wait-ms/op")
	b.ReportMetric(perOp(interpPark), "interp-park-ms/op")
}
