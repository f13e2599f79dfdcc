package checkpoint_test

// The tests of recycled warm state (Params.Recycle). They arm the poison
// seam (PoisonReleasedArenas), so a released arena is overwritten before
// its reuse and anything still reading a released unit's warm state
// computes from garbage. The ones that run the engine live here, in the
// external test package, because the seam is this package's test export
// and no other package's tests can reach it.

import (
	"context"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/freelist"
	"repro/internal/program"
	"repro/internal/uarch"
)

// leaseKeyframe cuts leasePlan's sweep into 10 keyframe intervals, so
// every run recycles arenas many times over.
const leaseKeyframe = 8

// leasePlan is a dense warmed plan (every unit measured) of a program
// that writes memory, small enough to run many times under -race.
func leasePlan(t testing.TB) (*program.Program, uarch.Config, checkpoint.Params) {
	return genProg(t, "gzipx", 32_000), uarch.Config8Way(),
		checkpoint.Params{U: 400, W: 800, K: 1, FunctionalWarm: true, Keyframe: leaseKeyframe}
}

// leaseOptions runs a plan on two workers at leaseKeyframe.
func leaseOptions() engine.Options { return engine.Options{Workers: 2, Keyframe: leaseKeyframe} }

// sameResults fails unless two runs measured the same units to the bit.
func sameResults(t *testing.T, what string, got, want *engine.Result) {
	t.Helper()
	if len(got.Units) != len(want.Units) {
		t.Fatalf("%s: %d units, want %d", what, len(got.Units), len(want.Units))
	}
	for i, g := range got.Units {
		w := want.Units[i]
		if g.Index != w.Index || g.Cycles != w.Cycles ||
			math.Float64bits(g.CPI) != math.Float64bits(w.CPI) || math.Float64bits(g.EPI) != math.Float64bits(w.EPI) {
			t.Fatalf("%s unit %d: %+v, want %+v", what, i, g, w)
		}
	}
}

// retainedReference is the plan's result replayed from a retained
// capture, which recycles nothing.
func retainedReference(t *testing.T, prog *program.Program, cfg uarch.Config, params checkpoint.Params) (*checkpoint.Set, *engine.Result) {
	t.Helper()
	set, err := checkpoint.Capture(context.Background(), prog, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.RunSet(context.Background(), prog, cfg, params.U, set, leaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	return set, want
}

// TestLeaseStreamedRunsMatchRetained: consecutive streamed runs that
// nothing retains — storeless, then writing a cold store whose journal
// encodes every unit in the sweep's push — recycle their keyframe
// intervals' arenas into each other, poisoned at every release, and each
// stays bit-identical to replaying a retained capture of the plan; the
// two store entries decode to the retained capture's units.
func TestLeaseStreamedRunsMatchRetained(t *testing.T) {
	checkpoint.PoisonReleasedArenas(t)
	prog, cfg, params := leasePlan(t)
	set, want := retainedReference(t, prog, cfg, params)
	if len(set.Units) < 8*leaseKeyframe {
		t.Fatalf("only %d units captured", len(set.Units))
	}
	key := checkpoint.KeyFor(prog, cfg, params)
	wantEntry := setDigest(t, key, set)

	// One worker, then two: whether the sweep or a worker drops an
	// interval's last hold depends on the schedule.
	built := freelist.Built()["warm arena"]
	for i, workers := range []int{1, 2, 2} {
		opt := leaseOptions()
		opt.Workers = workers
		got, err := engine.Run(context.Background(), prog, cfg, params, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "streamed storeless run", got, want)
		if i == 0 {
			built = freelist.Built()["warm arena"]
		}
	}
	// Two consecutive intervals take two arenas, and the runs after the
	// first find them listed; a worker stalled on an old interval's unit
	// can make a sweep build a third, but never one per interval.
	intervals := (len(set.Units) + leaseKeyframe - 1) / leaseKeyframe
	if n := freelist.Built()["warm arena"] - built; n >= int64(intervals) || checkpoint.FreeArenas() == 0 {
		t.Fatalf("two runs of %d intervals each built %d arenas, and %d are listed: the runs did not recycle",
			intervals, n, checkpoint.FreeArenas())
	}

	for range 2 {
		store, err := checkpoint.OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		opt := leaseOptions()
		opt.Store = store
		got, err := engine.Run(context.Background(), prog, cfg, params, opt)
		if err != nil || got.SweepCached {
			t.Fatalf("cold store-backed run: cached %v, %v", got != nil && got.SweepCached, err)
		}
		sameResults(t, "cold store-backed run", got, want)
		entry, err := store.Load(key)
		if err != nil || entry == nil {
			t.Fatalf("no entry committed (%v)", err)
		}
		if setDigest(t, key, entry) != wantEntry {
			t.Fatal("the store entry of a recycling sweep decodes to units other than the retained capture's")
		}
	}
}

// TestLeaseRetainedStreamsStayIntact: the streams something keeps — a
// run whose sweep a MemCache retains, a CaptureSet — never release their
// units' warm state, so runs recycling poisoned arenas around them leave
// them intact: the cache hit and every RunSet over the captured set stay
// bit-identical to the reference, and the set's encoding unchanged.
func TestLeaseRetainedStreamsStayIntact(t *testing.T) {
	checkpoint.PoisonReleasedArenas(t)
	prog, cfg, params := leasePlan(t)
	_, want := retainedReference(t, prog, cfg, params)
	recycle := func() {
		t.Helper()
		got, err := engine.Run(context.Background(), prog, cfg, params, leaseOptions())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "recycling run", got, want)
	}

	cached := leaseOptions()
	cached.Cache = checkpoint.NewMemCache()
	first, err := engine.Run(context.Background(), prog, cfg, params, cached)
	if err != nil || first.SweepCached {
		t.Fatalf("retained sweep: cached %v, %v", first != nil && first.SweepCached, err)
	}
	sameResults(t, "retained sweep", first, want)
	recycle()
	recycle()
	hit, err := engine.Run(context.Background(), prog, cfg, params, cached)
	if err != nil || !hit.SweepCached {
		t.Fatalf("cache hit: cached %v, %v", hit != nil && hit.SweepCached, err)
	}
	sameResults(t, "cache hit after recycling runs", hit, want)

	set, _, err := engine.CaptureSet(context.Background(), prog, cfg, params, leaseOptions())
	if err != nil {
		t.Fatal(err)
	}
	key := checkpoint.KeyFor(prog, cfg, params)
	before := setDigest(t, key, set)
	for range 2 {
		got, err := engine.RunSet(context.Background(), prog, cfg, params.U, set, leaseOptions())
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "RunSet over a CaptureSet", got, want)
		recycle()
	}
	if setDigest(t, key, set) != before {
		t.Fatal("a captured set's encoding changed while recycling runs ran")
	}
}

// TestLeaseHeldUntilPushed: the sweep holds each interval's arena until
// emit has returned for the interval's last unit, so a consumer that
// releases a unit as soon as it has it — as a worker does once the unit
// launched, possibly before a journal encodes it — can still read the
// unit, and every unit of its interval, until emit returns. A unit read
// after its interval was released reads the poison: the seam makes a
// late read visible.
func TestLeaseHeldUntilPushed(t *testing.T) {
	checkpoint.PoisonReleasedArenas(t)
	prog, cfg, params := leasePlan(t)
	set, err := checkpoint.Capture(context.Background(), prog, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	refs := references(t, set.Units)

	recycled := params
	recycled.Recycle = true
	var units []*checkpoint.Unit
	var m checkpoint.Materializer
	sum, _, err := checkpoint.CaptureStream(context.Background(), prog, cfg, recycled, func(u *checkpoint.Unit) bool {
		u.Release()
		u.Release() // a second release drops nothing
		i := len(units)
		units = append(units, u)
		got, err := m.Materialize(u)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		launchEqualsReference(t, "released unit read before emit returned", u, got, refs[set.Units[i]])
		return true
	})
	if err != nil || !sum.Complete || len(units) != len(set.Units) {
		t.Fatalf("recycling sweep: %d units, %+v, %v", len(units), sum, err)
	}
	if checkpoint.FreeArenas() == 0 {
		t.Fatal("no arena came back to the free list")
	}
	// The first keyframe's arena was released at the second keyframe and
	// poisoned; its launch state now differs from the reference.
	var late checkpoint.Materializer
	got, err := late.Materialize(units[0])
	if err == nil && warmEqual(got.Warm, refs[set.Units[0]].warm) {
		t.Fatal("a unit read after its arena was released still equals its reference: the arena was neither poisoned nor reused")
	}
}

// TestLeaseUnreleasedUnitsStayValid: a consumer of a recycling sweep
// that never releases its units (a run stopped before launching them)
// returns no arena to the free list, and its units stay intact.
func TestLeaseUnreleasedUnitsStayValid(t *testing.T) {
	checkpoint.PoisonReleasedArenas(t)
	prog, cfg, params := leasePlan(t)
	set, err := checkpoint.Capture(context.Background(), prog, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	refs := references(t, set.Units)
	freelist.Drain()
	recycled := params
	recycled.Recycle = true
	var units []*checkpoint.Unit
	if _, _, err := checkpoint.CaptureStream(context.Background(), prog, cfg, recycled, func(u *checkpoint.Unit) bool {
		units = append(units, u)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n := checkpoint.FreeArenas(); n != 0 {
		t.Fatalf("%d arenas listed while every unit still holds its own", n)
	}
	var m checkpoint.Materializer
	for i, u := range units {
		got, err := m.Materialize(u)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		launchEqualsReference(t, "unreleased unit", u, got, refs[set.Units[i]])
	}
}
