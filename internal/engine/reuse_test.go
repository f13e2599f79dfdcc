package engine_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/freelist"
	"repro/internal/uarch"
)

// builtSince returns, by free list, how many objects were built since
// before (a freelist.Built reading); only lists that built any appear.
func builtSince(before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, n := range freelist.Built() {
		if d := n - before[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// TestBuildCountsStayFixed pins the free lists' claim as a count: once
// a request has run, a second identical one builds no launcher, sweep
// rig, capture ring or store reader — for a streamed run (sweep and
// replay), a store hit (reader and replay) and a fleet shard
// (ReplayRange over a captured set).
func TestBuildCountsStayFixed(t *testing.T) {
	ctx := context.Background()
	p := genProg(t, "gccx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 2000, K: 4, FunctionalWarm: true}
	st, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set, err := checkpoint.Capture(ctx, p, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt engine.Options) func() error {
		return func() error {
			_, err := engine.Run(ctx, p, cfg, params, opt)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"streamed", run(engine.Options{Workers: 2})},
		{"store hit", run(engine.Options{Workers: 2, Store: st})},
		{"fleet shard", func() error {
			return engine.ReplayRange(ctx, p, cfg, params.U, set, 10, 40, engine.Options{Workers: 2},
				func(engine.RangeUnit) bool { return true })
		}},
	} {
		// Run once to fill the lists (and, for the store, the entry),
		// then once more to reach the steady state a served request sees.
		for range 2 {
			if err := tc.run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		before := freelist.Built()
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if built := builtSince(before); len(built) != 0 {
			t.Errorf("%s: a repeated request built %v", tc.name, built)
		}
	}
	if hits, _ := st.Stats(); hits != 2 {
		t.Fatalf("the store served %d hits, want 2", hits)
	}
}

// TestFreeListsPinNoRun: a finished request leaves nothing of itself
// in the free lists. With the request's launchers, sweep rig, ring and
// store reader back in their lists, its Program becomes unreachable.
func TestFreeListsPinNoRun(t *testing.T) {
	ctx := context.Background()
	st, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	func() {
		p := genProg(t, "gzipx", 200_000)
		runtime.SetFinalizer(p, func(any) { close(collected) })
		params := checkpoint.Params{U: 1000, W: 2000, K: 4, FunctionalWarm: true}
		for range 2 { // a streamed sweep into the store, then a streamed hit
			if _, err := engine.Run(ctx, p, uarch.Config8Way(), params, engine.Options{Workers: 2, Store: st}); err != nil {
				t.Fatal(err)
			}
		}
	}()
	if engine.FreeLaunchers() == 0 {
		t.Fatal("the run returned no launcher to the free list")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a finished run's Program is still reachable")
		}
	}
}
