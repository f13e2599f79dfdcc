package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/experiments"
	"repro/internal/smarts"
	"repro/internal/uarch"
)

// TestExperimentContextCarriesSessionKnobs checks that an experiment
// request samples through its own runner, built as a sampling request's
// is but without the sweep cache: the request's workers and the
// session's store, which NoStore and SerialLoop requests bypass.
// Requests at one scale share one context, whatever their mode.
func TestExperimentContextCarriesSessionKnobs(t *testing.T) {
	sess, err := Open(WithStore(t.TempDir()), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, tc := range []struct {
		req   *Request
		store bool
	}{
		{&Request{Scale: "tiny", Workers: 3}, true},
		{&Request{Scale: "tiny", Workers: 2}, true},
		{&Request{Scale: "tiny", Workers: 3, NoStore: true}, false},
		{&Request{Scale: "tiny", SerialLoop: true}, false},
	} {
		ec, err := sess.expContext(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := ec.Sampler.(*runner)
		if !ok || r.req != tc.req {
			t.Fatalf("experiment context samples through %T, not the request's runner", ec.Sampler)
		}
		want := tc.req.Workers
		if want == 0 {
			want = 1 // the session's WithWorkers
		}
		if r.opt.Workers != want || (r.opt.Store == sess.store) != tc.store || r.opt.Cache != nil {
			t.Fatalf("%+v: workers=%d store=%v cache=%v; want %d, %v, nil",
				*tc.req, r.opt.Workers, r.opt.Store != nil, r.opt.Cache != nil, want, tc.store)
		}
	}
	if len(sess.exps) != 1 {
		t.Fatalf("session keeps %d experiment contexts for one scale", len(sess.exps))
	}

	// A storeless session's sweep cache is unbounded by default: the
	// experiments' many sweeps stay out of it.
	bare, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	ec, err := bare.expContext(&Request{Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if r := ec.Sampler.(*runner); r.opt.Store != nil || r.opt.Cache != nil {
		t.Fatalf("storeless experiment runner attaches store %v, cache %v", r.opt.Store != nil, r.opt.Cache != nil)
	}
}

// TestMeasureBiasEngineMatchesPerPhase verifies the shared-sweep phase
// path experiments take on the engine: the bias measured through one
// multi-offset sweep must be bit-identical to the bias measured by
// dedicated per-phase engine runs.
func TestMeasureBiasEngineMatchesPerPhase(t *testing.T) {
	cfg := uarch.Config8Way()
	const bench = "gzipx"
	const u, w, n, phases = 1000, 2000, 60, 3

	sess, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	r := sess.newRunner(&Request{Workers: 2}, nil)
	ec := experiments.NewContext(experiments.Tiny, r)
	got, err := experiments.MeasureBias(context.Background(), ec, bench, cfg, u, w, smarts.FunctionalWarming, n, phases)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute with dedicated per-phase engine runs.
	refRuns, err := ec.Reference(context.Background(), bench, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trueUnits, err := refRuns.UnitCPIs(u)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ec.Program(bench)
	if err != nil {
		t.Fatal(err)
	}
	base := smarts.PlanForN(p.Length, u, w, n, smarts.FunctionalWarming, 0)
	var want float64
	for ph := 0; ph < phases; ph++ {
		plan := base
		plan.J = uint64(ph) * base.K / uint64(phases)
		res, err := r.Sample(context.Background(), p, cfg, plan)
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

// TestMeasureBiasStoreReuse verifies the session's store carries an
// experiment's phase sweep across repeated measurements.
func TestMeasureBiasStoreReuse(t *testing.T) {
	cfg := uarch.Config8Way()
	sess, err := Open(WithStore(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ec := experiments.NewContext(experiments.Tiny, sess.newRunner(&Request{Workers: 2}, nil))

	first, err := experiments.MeasureBias(context.Background(), ec, "gzipx", cfg, 1000, 2000, smarts.FunctionalWarming, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	second, err := experiments.MeasureBias(context.Background(), ec, "gzipx", cfg, 1000, 2000, smarts.FunctionalWarming, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first) != math.Float64bits(second) {
		t.Fatalf("bias changed across store reuse: %v vs %v", first, second)
	}
	hits, misses, _ := sess.StoreStats()
	if hits == 0 {
		t.Fatalf("store never hit (hits %d, misses %d)", hits, misses)
	}
}
