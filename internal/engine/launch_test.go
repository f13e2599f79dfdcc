package engine_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/freelist"
	"repro/internal/program"
	"repro/internal/uarch"
)

// launchU is the unit size the launch tests capture and replay at.
const launchU = 1000

// replayAll replays set's units [lo, hi) on the given worker count and
// returns them in stream order.
func replayAll(t *testing.T, p *program.Program, set *checkpoint.Set, lo, hi, workers int) []engine.RangeUnit {
	t.Helper()
	var out []engine.RangeUnit
	err := engine.ReplayRange(context.Background(), p, uarch.Config8Way(), launchU, set, lo, hi,
		engine.Options{Workers: workers}, func(ru engine.RangeUnit) bool {
			out = append(out, ru)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReusedLauncherMatchesFresh is the reset contract end to end: a
// worker that launches every unit of a set from one reused machine,
// core, memory and rolling launch state measures exactly what a machine
// built for each unit alone measures (one ReplayRange call per unit
// after the free lists are drained, so every launch context is new and
// every launch state comes from the keyframe) — cycles, energy bits, CPI and EPI — for warmed sets, for
// cold ones (which must launch from the constructed cold state, not
// from what the previous unit left), and for a write-heavy program
// whose units dirty private memory pages.
func TestReusedLauncherMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		bench string
		warm  bool
	}{
		{"gccx", true}, {"gccx", false}, {"gzipx", true}, {"gzipx", false},
	} {
		p := genProg(t, tc.bench, 120_000)
		set, err := checkpoint.Capture(context.Background(), p, uarch.Config8Way(),
			checkpoint.Params{U: launchU, W: 2000, K: 2, FunctionalWarm: tc.warm, Keyframe: 16})
		if err != nil {
			t.Fatal(err)
		}
		reused := replayAll(t, p, set, 0, len(set.Units), 1)
		if len(reused) != len(set.Units) || len(reused) < 40 {
			t.Fatalf("%s warm=%v: replayed %d of %d units", tc.bench, tc.warm, len(reused), len(set.Units))
		}
		for i, got := range reused {
			freelist.Drain()
			fresh := replayAll(t, p, set, i, i+1, 1)
			want := fresh[0]
			if got.Seq != want.Seq || got.Partial != want.Partial || got.Warming != want.Warming ||
				got.Res.Index != want.Res.Index || got.Res.Cycles != want.Res.Cycles {
				t.Fatalf("%s warm=%v unit %d: reused launcher %+v, fresh %+v", tc.bench, tc.warm, i, got, want)
			}
			bitsEqual(t, "EnergyNJ", got.Res.EnergyNJ, want.Res.EnergyNJ)
			bitsEqual(t, "CPI", got.Res.CPI, want.Res.CPI)
			bitsEqual(t, "EPI", got.Res.EPI, want.Res.EPI)
		}
	}
}

// TestReplayAllocationPerUnit machine-checks the launch path's
// allocation discipline: past the first keyframe interval (where each
// worker sizes its buffers), replaying a unit allocates at most 64 KB —
// a few copied-on-write memory pages and the result plumbing — instead
// of the ~1 MB of tag arrays, predictor tables and page tables a
// machine and a from-keyframe materialization per unit cost. gzipx is
// the demanding case: its units write fresh pages.
func TestReplayAllocationPerUnit(t *testing.T) {
	const maxPerUnit = 64 << 10
	p := genProg(t, "gzipx", 300_000)
	cfg := uarch.Config8Way()
	set, err := checkpoint.Capture(context.Background(), p, cfg,
		checkpoint.Params{U: launchU, W: 2000, K: 1, FunctionalWarm: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Units) < 200+checkpoint.DefaultKeyframe {
		t.Fatalf("only %d units captured", len(set.Units))
	}
	for _, workers := range []int{1, 2} {
		var settled, end runtime.MemStats
		steady := 0
		err := engine.ReplayRange(context.Background(), p, cfg, launchU, set, 0, len(set.Units),
			engine.Options{Workers: workers}, func(ru engine.RangeUnit) bool {
				switch {
				case ru.Seq == checkpoint.DefaultKeyframe:
					runtime.ReadMemStats(&settled)
				case ru.Seq > checkpoint.DefaultKeyframe:
					steady++
				}
				return true
			})
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&end)
		perUnit := (end.TotalAlloc - settled.TotalAlloc) / uint64(steady)
		t.Logf("workers=%d: %d B allocated per unit over %d steady-state units", workers, perUnit, steady)
		if perUnit > maxPerUnit {
			t.Errorf("workers=%d: %d B allocated per replayed unit, want <= %d", workers, perUnit, maxPerUnit)
		}
	}
}
