package smarts_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// engineRun runs plan on engine.Run and converts the result as the sim
// session does.
func engineRun(t *testing.T, p *program.Program, cfg uarch.Config, plan smarts.Plan, opt engine.Options) *smarts.Result {
	t.Helper()
	er, err := engine.Run(context.Background(), p, cfg, plan.CheckpointParams(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return smarts.FromEngine(plan, er, er)
}

// enginePhases runs plan at every offset in js from one multi-offset
// sweep (engine.CaptureSet, then engine.RunSet per offset) and converts
// each offset's replay with the shared sweep half, as the sim session
// does.
func enginePhases(t *testing.T, p *program.Program, cfg uarch.Config, plan smarts.Plan, js []uint64, opt engine.Options) []*smarts.Result {
	t.Helper()
	set, sweep, err := engine.CaptureSet(context.Background(), p, cfg, plan.PhasesParams(js), opt)
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]*smarts.Result, len(js))
	for i, j := range js {
		er, err := engine.RunSet(context.Background(), p, cfg, plan.U, set.Offset(j), opt)
		if err != nil {
			t.Fatal(err)
		}
		plan.J = j
		runs[i] = smarts.FromEngine(plan, sweep, er)
	}
	return runs
}

// TestRunSampledPhasesBitIdentical verifies the shared-sweep phase
// path: each phase's result must match a dedicated engine run at that
// offset bit for bit, with the sweep paid once.
func TestRunSampledPhasesBitIdentical(t *testing.T) {
	p := genBench(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, 1000, 50, smarts.FunctionalWarming, 0)
	js := []uint64{0, 1, 3}

	runs := enginePhases(t, p, cfg, plan, js, engine.Options{Workers: 3})
	if len(runs) != len(js) {
		t.Fatalf("got %d results for %d phases", len(runs), len(js))
	}
	for i, j := range js {
		single := plan
		single.J = j
		want := engineRun(t, p, cfg, single, engine.Options{Workers: 2})
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

	first := enginePhases(t, p, cfg, plan, js, opt)
	second := enginePhases(t, p, cfg, plan, js, opt)
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

// TestStoreThroughRunSampled verifies the store plumbing every engine
// run uses: two identical runs whose engine.Options carry a store share
// one sweep, and the second one's Result says so.
func TestStoreThroughRunSampled(t *testing.T) {
	p := genBench(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := smarts.PlanForN(p.Length, 1000, 1000, 40, smarts.FunctionalWarming, 0)
	opt := engine.Options{Workers: 2, Store: store}

	first := engineRun(t, p, cfg, plan, opt)
	if first.SweepCached {
		t.Fatal("first run claims cached sweep")
	}
	second := engineRun(t, p, cfg, plan, opt)
	if !second.SweepCached {
		t.Fatal("second run did not reuse the sweep")
	}
	a, b := first.CPIEstimate(stats.Alpha997), second.CPIEstimate(stats.Alpha997)
	if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) {
		t.Fatalf("estimates differ across store reuse: %v vs %v", a, b)
	}
}
