package checkpoint_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/uarch"
)

// BenchmarkCaptureDense tracks the delta-snapshot win on the workload
// it exists for: a dense sampling plan (every second unit checkpointed)
// where snapshot capture, not functional execution, dominates the
// sweep. The timed loop runs the delta-encoded capture (the default);
// the reported metrics compare its in-memory warm and memory payloads
// and its on-disk entry size against a full-snapshot capture
// (Keyframe=1, the pre-delta encoding) of the same plan:
//
//	snapshotBytes/unit      in-memory warm payload, delta encoding
//	fullSnapshotBytes/unit  same plan, full snapshots
//	snapshotShrinkX         fullSnapshotBytes / snapshotBytes
//	memBytes/unit           in-memory memory payload (distinct pages +
//	                        page tables/dirty-page deltas), delta encoding
//	fullMemBytes/unit       same plan, full page table every unit
//	storeBytes/unit         on-disk entry bytes per unit, delta encoding
//	fullStoreBytes/unit     on-disk entry bytes per unit, full snapshots
//	units/s                 delta-encoded capture throughput
//	sweepNsPerInst          sweep cost per functionally warmed instruction
//
// The byte counts are deterministic, so TestDenseCaptureBytes pins the
// delta-encoded ones; throughput is end to end in benchmark/
// (cold-sparse).
func BenchmarkCaptureDense(b *testing.B) {
	p, cfg, dense := densePlan(b)
	var set *checkpoint.Set
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set, err = checkpoint.Capture(context.Background(), p, cfg, dense); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(set.Units) == 0 {
		b.Fatal("no units captured")
	}
	b.ReportMetric(float64(len(set.Units))/b.Elapsed().Seconds()*float64(b.N), "units/s")

	units := float64(len(set.Units))
	deltaBytes := float64(set.WarmBytes())

	fullParams := dense
	fullParams.Keyframe = 1
	full, err := checkpoint.Capture(context.Background(), p, cfg, fullParams)
	if err != nil {
		b.Fatal(err)
	}
	fullBytes := float64(full.WarmBytes())

	deltaStore := float64(entrySize(b, p, cfg, dense, set))
	fullStore := float64(entrySize(b, p, cfg, fullParams, full))

	b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(b.N)*float64(set.SweepInsts)), "sweepNsPerInst")

	b.ReportMetric(deltaBytes/units, "snapshotBytes/unit")
	b.ReportMetric(fullBytes/units, "fullSnapshotBytes/unit")
	b.ReportMetric(fullBytes/deltaBytes, "snapshotShrinkX")
	b.ReportMetric(float64(set.MemBytes())/units, "memBytes/unit")
	b.ReportMetric(float64(full.MemBytes())/units, "fullMemBytes/unit")
	b.ReportMetric(deltaStore/units, "storeBytes/unit")
	b.ReportMetric(fullStore/units, "fullStoreBytes/unit")
}

// densePlan is BenchmarkCaptureDense's plan: gccx 400k, every second
// unit checkpointed with functional warming and the default keyframe.
func densePlan(tb testing.TB) (*program.Program, uarch.Config, checkpoint.Params) {
	spec, err := program.ByName("gccx")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := program.Generate(spec, 400_000)
	if err != nil {
		tb.Fatal(err)
	}
	return p, uarch.Config8Way(), checkpoint.Params{U: 1000, W: 2000, K: 2, J: 0, FunctionalWarm: true}
}

// entrySize saves set under params' key in a fresh store and returns the
// entry file's size in bytes.
func entrySize(tb testing.TB, p *program.Program, cfg uarch.Config, params checkpoint.Params, set *checkpoint.Set) int64 {
	store, err := checkpoint.OpenStore(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	key := checkpoint.KeyFor(p, cfg, params)
	if err := store.Save(key, set); err != nil {
		tb.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(store.Dir(), key.Hash()+".ckpt"))
	if err != nil {
		tb.Fatal(err)
	}
	return st.Size()
}

// TestDenseCaptureBytes pins the delta encoding's footprint on
// BenchmarkCaptureDense's plan: the in-memory warm payload
// (snapshotBytes/unit), memory payload (memBytes/unit) and store entry
// (storeBytes/unit) may not exceed what the encoding produced when the
// pin was set. All three are deterministic byte counts, so any growth is
// a real encoding change; a shrink is welcome and can lower the pin.
func TestDenseCaptureBytes(t *testing.T) {
	p, cfg, dense := densePlan(t)
	set, err := checkpoint.Capture(context.Background(), p, cfg, dense)
	if err != nil {
		t.Fatal(err)
	}
	const units = 193
	if len(set.Units) != units {
		t.Fatalf("captured %d units, the pins below assume %d", len(set.Units), units)
	}
	for _, c := range []struct {
		name     string
		got, max int64
	}{
		{"snapshotBytes", int64(set.WarmBytes()), 2_712_294},        // 14,053.3 B/unit
		{"memBytes", int64(set.MemBytes()), 1_867_840},              // 9,677.9 B/unit
		{"storeBytes", entrySize(t, p, cfg, dense, set), 4_787_328}, // 24,804.8 B/unit
	} {
		if c.got > c.max {
			t.Errorf("%s: %d over %d units (%.1f/unit), pinned at most %d (%.1f/unit)",
				c.name, c.got, units, float64(c.got)/units, c.max, float64(c.max)/units)
		}
	}
}
