package checkpoint_test

import (
	"context"

	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/uarch"
)

// unitsEqual compares two captured units including warm state and the
// memory image contents. Both halves are compared after
// materialization, so a delta-encoded unit and a full-snapshot unit are
// equal exactly when their launch states are bit-identical.
func unitsEqual(t *testing.T, what string, a, b *checkpoint.Unit) {
	t.Helper()
	if a.Index != b.Index || a.Start != b.Start || a.LaunchAt != b.LaunchAt {
		t.Fatalf("%s: unit geometry differs: {%d %d %d} vs {%d %d %d}",
			what, a.Index, a.Start, a.LaunchAt, b.Index, b.Start, b.LaunchAt)
	}
	if a.Arch != b.Arch {
		t.Fatalf("%s unit %d: arch state differs", what, a.Index)
	}
	al, err := a.Materialize()
	if err != nil {
		t.Fatalf("%s unit %d: %v", what, a.Index, err)
	}
	bl, err := b.Materialize()
	if err != nil {
		t.Fatalf("%s unit %d: %v", what, b.Index, err)
	}
	memEqual(t, al.Mem.NewMemory(), bl.Mem.NewMemory())
	if (al.Warm == nil) != (bl.Warm == nil) {
		t.Fatalf("%s unit %d: warm presence differs", what, a.Index)
	}
	if al.Warm == nil {
		return
	}
	if !reflect.DeepEqual(al.Warm.Hier, bl.Warm.Hier) {
		t.Fatalf("%s unit %d: hierarchy state differs", what, a.Index)
	}
	if !reflect.DeepEqual(al.Warm.Pred, bl.Warm.Pred) {
		t.Fatalf("%s unit %d: predictor state differs", what, a.Index)
	}
}

// TestMultiOffsetMatchesSingleSweeps is the multi-offset capture
// guarantee: one sweep over several phase offsets produces, per offset,
// exactly the units a dedicated single-offset sweep produces — launch
// points, architectural state, memory, and warm state all identical.
// The offsets are deliberately 1 unit apart (closer than W) to exercise
// the per-offset warming-window clamp.
func TestMultiOffsetMatchesSingleSweeps(t *testing.T) {
	p := genProg(t, "gccx", 300_000)
	cfg := uarch.Config8Way()
	offsets := []uint64{0, 1, 5}
	base := checkpoint.Params{U: 1000, W: 2000, K: 10, FunctionalWarm: true}

	multi := base
	multi.Offsets = offsets
	mset, err := checkpoint.Capture(context.Background(), p, cfg, multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(mset.Units) == 0 {
		t.Fatal("no units captured")
	}

	total := 0
	for _, j := range offsets {
		single := base
		single.J = j
		sset, err := checkpoint.Capture(context.Background(), p, cfg, single)
		if err != nil {
			t.Fatal(err)
		}
		sub := mset.Offset(j)
		if len(sub.Units) != len(sset.Units) {
			t.Fatalf("offset %d: %d units from multi-sweep, %d from single", j, len(sub.Units), len(sset.Units))
		}
		for i := range sub.Units {
			unitsEqual(t, "offset", sub.Units[i], sset.Units[i])
		}
		total += len(sub.Units)
	}
	if total != len(mset.Units) {
		t.Fatalf("offset partition lost units: %d vs %d", total, len(mset.Units))
	}
}

// TestMultiOffsetMaxUnitsPerOffset verifies the MaxUnits cap applies
// per offset in a multi-offset sweep.
func TestMultiOffsetMaxUnitsPerOffset(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	params := checkpoint.Params{
		U: 1000, W: 1000, K: 10, Offsets: []uint64{0, 3}, MaxUnits: 4,
	}
	set, err := checkpoint.Capture(context.Background(), p, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range params.Offsets {
		if n := len(set.Offset(j).Units); n != 4 {
			t.Fatalf("offset %d captured %d units, want 4", j, n)
		}
	}
	if len(set.Units) != 8 {
		t.Fatalf("total %d units, want 8", len(set.Units))
	}
}

// TestCaptureStreamConsumerStop verifies a consumer can stop the sweep and
// the summary reflects the truncation.
func TestCaptureStreamConsumerStop(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	var got int
	sum, _, err := checkpoint.CaptureStream(context.Background(), p, cfg,
		checkpoint.Params{U: 1000, W: 1000, K: 5, FunctionalWarm: true},
		func(u *checkpoint.Unit) bool {
			got++
			return got < 3
		})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 || sum.Captured != 3 {
		t.Fatalf("emitted %d units (summary %d), want 3", got, sum.Captured)
	}
	if sum.Complete {
		t.Fatal("truncated sweep reported complete")
	}
	full, err := checkpoint.Capture(context.Background(), p, cfg, checkpoint.Params{U: 1000, W: 1000, K: 5, FunctionalWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Units) <= 3 {
		t.Fatalf("full capture only has %d units", len(full.Units))
	}
	if full.SweepInsts == 0 {
		t.Fatal("missing sweep accounting")
	}
}
