package engine_test

import (
	"context"
	"errors"
	"os"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/uarch"
)

// resultsEqual asserts two engine results carry bit-identical
// measurements.
func resultsEqual(t *testing.T, what string, a, b *engine.Result) {
	t.Helper()
	if len(a.Units) != len(b.Units) {
		t.Fatalf("%s: %d units vs %d", what, len(a.Units), len(b.Units))
	}
	for i := range a.Units {
		ua, ub := a.Units[i], b.Units[i]
		if ua.Index != ub.Index || ua.Cycles != ub.Cycles {
			t.Fatalf("%s: unit %d differs: %+v vs %+v", what, i, ua, ub)
		}
		bitsEqual(t, what+" CPI", ua.CPI, ub.CPI)
		bitsEqual(t, what+" EPI", ua.EPI, ub.EPI)
	}
	if a.MeasuredInsts != b.MeasuredInsts || a.WarmingInsts != b.WarmingInsts {
		t.Fatalf("%s: instruction accounting differs", what)
	}
}

// TestEngineResumesCancelledSweep is the engine half of the crash/
// resume acceptance: a run cancelled mid-sweep journals its progress,
// and rerunning the same key completes from the journal — measurements
// bit-identical to an uninterrupted run, total sweep work across both
// runs within 1.1x one cold sweep (a cancelled sweep checkpoints its
// journal through its last emitted unit, so nothing is swept twice).
func TestEngineResumesCancelledSweep(t *testing.T) {
	p := genProg(t, "gccx", 400_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 8, J: 0, FunctionalWarm: true}

	baseline, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline.Units) < 20 {
		t.Fatalf("plan too small: %d units", len(baseline.Units))
	}

	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// The cancelled sweep checkpoints its journal through the last unit it
	// emitted, so the rerun replays none of it.
	opt := engine.Options{Workers: 2, Store: store, Keyframe: 4}

	// Cancel mid-sweep, past the halfway mark so the resume saving is
	// unambiguous.
	cancelAt := 3 * len(baseline.Units) / 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := opt
	interrupted.OnCaptured = func(captured int) {
		if captured >= cancelAt {
			cancel()
		}
	}
	if _, err := engine.Run(ctx, p, cfg, params, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}

	// Rerun with the same key: the sweep must resume from the journal.
	resumed, err := engine.Run(context.Background(), p, cfg, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.SweepCached {
		t.Fatal("resumed run hit a committed entry; the cancelled run must not have committed one")
	}
	if resumed.SweepResumedInsts == 0 {
		t.Fatal("rerun did not resume from the journal")
	}
	resultsEqual(t, "resumed vs baseline", resumed, baseline)
	if resumed.SweepInsts != baseline.SweepInsts {
		t.Fatalf("sweep accounting differs: %d vs %d", resumed.SweepInsts, baseline.SweepInsts)
	}

	// The interrupted run swept to (roughly) its cancel point and
	// journaled that position; the resumed run only executed SweepInsts -
	// SweepResumedInsts on top. With the cancel at 3/4 of the plan, the
	// journal must sit past the halfway mark — i.e. the rerun genuinely
	// skipped most of the sweep, so the combined work stays within 1.1x
	// of a cold sweep.
	if resumed.SweepResumedInsts <= baseline.SweepInsts/2 {
		t.Fatalf("journal frame at %d insts, cancelled at ~3/4 of a %d-inst sweep — resume saved too little",
			resumed.SweepResumedInsts, baseline.SweepInsts)
	}

	// The journal became the entry: the store holds exactly the entry, no
	// journal and no staged file.
	key := checkpoint.KeyFor(p, cfg, params)
	ents, err := os.ReadDir(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range ents {
		files = append(files, e.Name())
	}
	if want := []string{key.Hash() + ".ckpt"}; !slices.Equal(files, want) {
		t.Fatalf("completed run left %v, want %v", files, want)
	}

	// The committed entry serves the next run.
	rerun, err := engine.Run(context.Background(), p, cfg, params, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rerun.SweepCached {
		t.Fatal("completed resumed run did not commit a store entry")
	}
	resultsEqual(t, "store entry after resume", rerun, baseline)
}

// TestEngineResumeCorruptJournalFallsBack: a journal that fails resume
// validation must degrade to a cold sweep, not fail the run.
func TestEngineResumeCorruptJournalFallsBack(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{U: 1000, W: 1000, K: 10, J: 0, FunctionalWarm: true}
	store, err := checkpoint.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := engine.Options{Workers: 2, Store: store, Keyframe: 4}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := opt
	interrupted.OnCaptured = func(captured int) {
		if captured >= 8 {
			cancel()
		}
	}
	if _, err := engine.Run(ctx, p, cfg, params, interrupted); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err %v, want context.Canceled", err)
	}

	key := checkpoint.KeyFor(p, cfg, params)
	rs, err := store.LoadPartial(key)
	if err != nil || rs == nil {
		t.Fatalf("no journal (rs=%v err=%v)", rs != nil, err)
	}

	baseline, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the journal with poisoned geometry: it decodes cleanly but
	// disagrees with the plan's boundary stream, so resume validation
	// must reject it and the run restart cold.
	rs.Units[0].Index += 3
	w, err := store.Writer(key, rs.PopulationUnits)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range rs.Units {
		if err := w.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	fr := checkpoint.ResumeFrame{Captured: len(rs.Units), SweepInsts: rs.SweepInsts, SweepTime: rs.SweepTime,
		HaveIBlock: rs.HaveIBlock, LastIBlock: rs.LastIBlock}
	if err := w.Checkpoint(fr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	res, err := engine.Run(context.Background(), p, cfg, params, opt)
	if err != nil {
		t.Fatalf("run with poisoned journal failed: %v", err)
	}
	if res.SweepResumedInsts != 0 {
		t.Fatal("poisoned journal was resumed")
	}
	resultsEqual(t, "cold fallback", res, baseline)
}
