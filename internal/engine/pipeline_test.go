package engine_test

import (
	"context"

	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/uarch"
)

// resultsBitIdentical asserts two engine results carry exactly the same
// measurements.
func resultsBitIdentical(t *testing.T, what string, a, b *engine.Result) {
	t.Helper()
	if len(a.Units) != len(b.Units) {
		t.Fatalf("%s: %d units vs %d", what, len(a.Units), len(b.Units))
	}
	for i := range a.Units {
		ua, ub := a.Units[i], b.Units[i]
		if ua.Index != ub.Index || ua.Cycles != ub.Cycles {
			t.Fatalf("%s unit %d: cycles %d vs %d (index %d vs %d)",
				what, i, ua.Cycles, ub.Cycles, ua.Index, ub.Index)
		}
		bitsEqual(t, what+" CPI", ua.CPI, ub.CPI)
		bitsEqual(t, what+" EPI", ua.EPI, ub.EPI)
	}
}

// TestPipelineMatchesCaptureThenReplay is the streaming pipeline's core
// guarantee: overlapping capture with replay changes wall clock, never
// results. The streamed schedule must be bit-identical to the
// capture-then-replay reference that still exists — RunSet over a
// complete checkpoint.Capture, what the multi-offset path runs — and to
// the one-worker serial path, for several worker counts.
func TestPipelineMatchesCaptureThenReplay(t *testing.T) {
	cfg := uarch.Config8Way()
	p := genProg(t, "gccx", 400_000)
	params := checkpoint.Params{U: 1000, W: 1000, K: 4, J: 0, FunctionalWarm: true}
	set, err := checkpoint.Capture(context.Background(), p, cfg, params)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := engine.RunSet(context.Background(), p, cfg, params.U, set, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Units) == 0 {
		t.Fatal("no units measured")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		streamed, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "streamed", serial, streamed)
		replayed, err := engine.RunSet(context.Background(), p, cfg, params.U, set, engine.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "capture-then-replay", serial, replayed)
	}
}

// TestPipelineStreamsSweepIntoReplay verifies the streaming schedule
// does not cost wall clock against capture-then-replay: with ample
// workers the streamed run overlaps replay with the sweep, so it should
// finish within sweep + replay. On a single-core machine the schedules
// tie, so the test only requires the streamed run not to be slower than
// the capture-then-replay total by more than a generous margin.
func TestPipelineStreamsSweepIntoReplay(t *testing.T) {
	cfg := uarch.Config8Way()
	p := genProg(t, "mcfx", 400_000)
	params := checkpoint.Params{U: 1000, W: 1000, K: 4, J: 0, FunctionalWarm: true}

	start := time.Now()
	set, err := checkpoint.Capture(context.Background(), p, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	sweep := time.Since(start)
	two, err := engine.RunSet(context.Background(), p, cfg, params.U, set, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resultsBitIdentical(t, "overlap", two, streamed)
	if twoWall := sweep + two.Timing.Wall; streamed.Timing.Wall > twoWall*3 {
		t.Fatalf("streamed schedule pathologically slower: %v vs %v", streamed.Timing.Wall, twoWall)
	}
}

// TestRunSetPerOffsetMatchesRuns verifies the multi-offset flow end to
// end: one sweep capturing several phases, replayed per offset with
// RunSet, must reproduce each dedicated single-offset engine run bit
// for bit.
func TestRunSetPerOffsetMatchesRuns(t *testing.T) {
	cfg := uarch.Config8Way()
	p := genProg(t, "gzipx", 300_000)
	offsets := []uint64{0, 2, 5}
	base := checkpoint.Params{U: 1000, W: 2000, K: 10, FunctionalWarm: true}

	multi := base
	multi.Offsets = offsets
	set, err := checkpoint.Capture(context.Background(), p, cfg, multi)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range offsets {
		single := base
		single.J = j
		want, err := engine.Run(context.Background(), p, cfg, single, engine.Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		sub := set.Offset(j)
		got, err := engine.RunSet(context.Background(), p, cfg, base.U, sub, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "offset replay", want, got)
		// RunSet must not consume the caller's set: a second replay of
		// the same sub-set still works.
		again, err := engine.RunSet(context.Background(), p, cfg, base.U, sub, engine.Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		resultsBitIdentical(t, "offset replay repeat", want, again)
	}
}

// TestStoreRunBitIdentical verifies the full store cycle inside the
// engine: a first run sweeps and persists, a second run loads the
// launch states from disk, skips the sweep, and still produces
// bit-identical measurements at a different worker count.
func TestStoreRunBitIdentical(t *testing.T) {
	cfg := uarch.Config8Way()
	p := genProg(t, "ammpx", 300_000)
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, J: 1, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	first, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if first.SweepCached {
		t.Fatal("first run claims a cached sweep")
	}
	if first.SweepInsts == 0 {
		t.Fatal("first run has no sweep accounting")
	}

	second, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 5, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !second.SweepCached {
		t.Fatal("second run did not use the stored sweep")
	}
	resultsBitIdentical(t, "store cycle", first, second)
	if hits, misses := store.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("store stats %d/%d, want 1 hit 1 miss", hits, misses)
	}

	// A timing-only config variant shares the entry (same warm shape).
	variant := cfg
	variant.Lat.Mem = 250
	variant.EnergyScale = 2.0
	third, err := engine.Run(context.Background(), p, variant, params, engine.Options{Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if !third.SweepCached {
		t.Fatal("timing-only variant did not reuse the stored sweep")
	}
	if third.Units[0].Cycles == first.Units[0].Cycles {
		t.Log("note: timing variant produced identical cycles (possible but unexpected)")
	}
}
