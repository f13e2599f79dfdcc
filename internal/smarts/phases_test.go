package smarts_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// TestRunSampledPhasesBitIdentical verifies the shared-sweep phase
// helper: each phase's result must match a dedicated RunSampledContext
// at that offset bit for bit, with the sweep paid once.
func TestRunSampledPhasesBitIdentical(t *testing.T) {
	p := genBench(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, 1000, 50, smarts.FunctionalWarming, 0)
	js := []uint64{0, 1, 3}

	runs, err := smarts.RunSampledPhasesContext(context.Background(), p, cfg, plan, js, engine.Options{Workers: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(js) {
		t.Fatalf("got %d results for %d phases", len(runs), len(js))
	}
	for i, j := range js {
		single := plan
		single.J = j
		want, err := smarts.RunSampledContext(context.Background(), p, cfg, single, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := runs[i]
		if got.Plan.J != j {
			t.Fatalf("result %d echoes phase %d, want %d", i, got.Plan.J, j)
		}
		if len(got.Units) != len(want.Units) || len(got.Units) == 0 {
			t.Fatalf("phase %d: %d units vs %d dedicated", j, len(got.Units), len(want.Units))
		}
		wc, gc := want.CPIEstimate(stats.Alpha997), got.CPIEstimate(stats.Alpha997)
		if math.Float64bits(wc.Mean) != math.Float64bits(gc.Mean) ||
			math.Float64bits(wc.RelCI) != math.Float64bits(gc.RelCI) {
			t.Fatalf("phase %d: estimates differ: %v vs %v", j, gc, wc)
		}
		for u := range got.Units {
			if got.Units[u].Cycles != want.Units[u].Cycles || got.Units[u].Index != want.Units[u].Index {
				t.Fatalf("phase %d unit %d differs", j, u)
			}
		}
	}
}

// TestRunSampledPhasesStore verifies the multi-offset set round-trips
// through the store: a second phase sweep loads the shared entry and
// reproduces every phase bit for bit.
func TestRunSampledPhasesStore(t *testing.T) {
	p := genBench(t, "mcfx", 300_000)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, 1000, 30, smarts.FunctionalWarming, 0)
	js := []uint64{0, 2}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{Workers: 2, Store: store}

	first, err := smarts.RunSampledPhasesContext(context.Background(), p, cfg, plan, js, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := smarts.RunSampledPhasesContext(context.Background(), p, cfg, plan, js, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := store.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("store stats %d/%d, want 1 hit 1 miss", hits, misses)
	}
	for i := range js {
		a, b := first[i], second[i]
		if len(a.Units) != len(b.Units) {
			t.Fatalf("phase %d: unit counts differ after store reload", js[i])
		}
		for u := range a.Units {
			if a.Units[u] != b.Units[u] {
				t.Fatalf("phase %d unit %d differs after store reload", js[i], u)
			}
		}
	}
}

// TestStoreThroughRunSampled verifies the store plumbing the
// experiments use: two identical runs whose engine.Options carry a
// store share one sweep.
func TestStoreThroughRunSampled(t *testing.T) {
	p := genBench(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := smarts.PlanForN(p.Length, 1000, 1000, 40, smarts.FunctionalWarming, 0)
	opt := engine.Options{Workers: 2, Store: store}

	first, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.SweepCached {
		t.Fatal("first run claims cached sweep")
	}
	second, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !second.SweepCached {
		t.Fatal("second run did not reuse the sweep")
	}
	a, b := first.CPIEstimate(stats.Alpha997), second.CPIEstimate(stats.Alpha997)
	if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) {
		t.Fatalf("estimates differ across store reuse: %v vs %v", a, b)
	}
}
