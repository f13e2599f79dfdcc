package experiments_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/smarts"
	"repro/internal/uarch"
)

// freshTinyCtx builds a private context at the fast test scale (the
// shared tinyCtx stays on the serial loop).
func freshTinyCtx() *experiments.Context {
	return experiments.NewContext(experiments.Tiny)
}

// TestMeasureBiasEngineMatchesPerPhase verifies the shared-sweep phase
// path the engine contexts now take: the bias measured through one
// multi-offset sweep must be bit-identical to the bias measured by
// dedicated per-phase engine runs (which the engine path computed
// before this optimization).
func TestMeasureBiasEngineMatchesPerPhase(t *testing.T) {
	cfg := uarch.Config8Way()
	const bench = "gzipx"
	const u, w, n, phases = 1000, 2000, 60, 3

	shared := freshTinyCtx()
	shared.Engine = &engine.Options{Workers: 2}
	got, err := experiments.MeasureBias(context.Background(), shared, bench, cfg, u, w, smarts.FunctionalWarming, n, phases)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute with dedicated per-phase engine runs.
	ref := freshTinyCtx()
	refRuns, err := ref.Reference(context.Background(), bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trueUnits, err := refRuns.UnitCPIs(u)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ref.Program(bench)
	if err != nil {
		t.Fatal(err)
	}
	base := smarts.PlanForN(p.Length, u, w, n, smarts.FunctionalWarming, 0)
	var want float64
	for ph := 0; ph < phases; ph++ {
		plan := base
		plan.J = uint64(ph) * base.K / uint64(phases)
		res, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var measured, truth float64
		for _, unit := range res.Units {
			if unit.Index >= uint64(len(trueUnits)) {
				continue
			}
			measured += unit.CPI
			truth += trueUnits[unit.Index]
		}
		want += (measured - truth) / truth
	}
	want /= phases

	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("shared-sweep bias %v != per-phase bias %v", got, want)
	}
}

// TestMeasureBiasStoreReuse verifies a context-attached store carries
// the phase sweep across repeated measurements.
func TestMeasureBiasStoreReuse(t *testing.T) {
	cfg := uarch.Config8Way()
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := freshTinyCtx()
	ctx.Engine = &engine.Options{Workers: 2, Store: store}

	first, err := experiments.MeasureBias(context.Background(), ctx, "gzipx", cfg, 1000, 2000, smarts.FunctionalWarming, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := experiments.MeasureBias(context.Background(), ctx, "gzipx", cfg, 1000, 2000, smarts.FunctionalWarming, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first) != math.Float64bits(second) {
		t.Fatalf("bias changed across store reuse: %v vs %v", first, second)
	}
	hits, misses := store.Stats()
	if hits == 0 {
		t.Fatalf("store never hit (hits %d, misses %d)", hits, misses)
	}
}
