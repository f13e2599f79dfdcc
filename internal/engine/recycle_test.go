package engine_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/uarch"
)

// TestRecycledSweepAllocation pins what a streamed run with nothing
// retained allocates once a first run has primed the process: no warm
// snapshot or delta arrays — each keyframe interval's are carved from a
// recycled arena (checkpoint.Params.Recycle) — so the run allocates at
// most the sweep's memory state (bounded by the plan's MemBytes: every
// distinct page and page table its units carry, the program's shared
// image pages included) plus 4 KiB per unit. The per-unit allowance
// covers the unit, warm-delta and memory-delta headers, the result and
// the merge; the whole run, memory state included, measures about
// 2.6 KiB per unit (0.8 MB for 300 units). The plan's warm payload is
// about 42 KiB per unit, over eight times the allowance, so warm arrays
// made fresh for the units (14.1 MB for this run when nothing recycles)
// fail the bound.
func TestRecycledSweepAllocation(t *testing.T) {
	const perUnit = 4 << 10
	p := genProg(t, "gccx", 6_000_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 2000, K: 20, FunctionalWarm: true}
	set, err := checkpoint.Capture(context.Background(), p, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Units) < 250 || set.WarmBytes()/len(set.Units) < 8*perUnit {
		t.Fatalf("plan not sparse enough: %d units, %d warm bytes per unit", len(set.Units), set.WarmBytes()/len(set.Units))
	}
	limit := uint64(set.MemBytes() + perUnit*len(set.Units))
	t.Logf("plan: %d units, %d B of memory state, %d B of warm state", len(set.Units), set.MemBytes(), set.WarmBytes())
	set = nil

	opt := engine.Options{Workers: 2}
	if _, err := engine.Run(context.Background(), p, cfg, params, opt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := engine.Run(context.Background(), p, cfg, params, opt)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("streamed run, %d units: %d B allocated (%d B per unit), limit %d B", len(res.Units), got, got/uint64(len(res.Units)), limit)
	if got > limit {
		t.Errorf("a primed streamed run allocated %d B, want <= %d", got, limit)
	}
}
