package engine

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// launcherSets captures gzipx (its units write fresh pages) warmed and
// cold at the launch tests' plan.
func launcherSets(tb testing.TB, length uint64, k uint64) (*program.Program, map[bool]*checkpoint.Set) {
	tb.Helper()
	spec, err := program.ByName("gzipx")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := program.Generate(spec, length)
	if err != nil {
		tb.Fatal(err)
	}
	sets := map[bool]*checkpoint.Set{}
	for _, warm := range []bool{true, false} {
		set, err := checkpoint.Capture(context.Background(), p, uarch.Config8Way(),
			checkpoint.Params{U: 1000, W: 2000, K: k, FunctionalWarm: warm, Keyframe: 16})
		if err != nil {
			tb.Fatal(err)
		}
		sets[warm] = set
	}
	return p, sets
}

// memoryEqual reports whether two memories hold the same pages with the
// same bytes.
func memoryEqual(a, b *mem.Memory) bool {
	if !slices.Equal(a.Pages(), b.Pages()) {
		return false
	}
	pa, pb := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for _, n := range a.Pages() {
		a.ReadBytes(n*mem.PageSize, pa)
		b.ReadBytes(n*mem.PageSize, pb)
		if !bytes.Equal(pa, pb) {
			return false
		}
	}
	return true
}

// TestReusedLauncherEqualsFresh pins the launch reset at the state it
// leaves, not only at the results: after each launch a reused launcher's
// machine — cache and predictor arrays, statistics, event counters,
// snapshot chains, warm-hit hints, dirty bitmaps, the meter — equals,
// field for field, a new launcher's that launched the same unit, and
// its memory holds the same bytes. The reused launcher measures every
// unit it launches, so the next launch starts dirty. Warm launches
// (statistics-only reset, then the restores) and cold ones (full reset)
// alternate in both orders.
func TestReusedLauncherEqualsFresh(t *testing.T) {
	const u = 1000
	p, sets := launcherSets(t, 120_000, 2)
	cfg := uarch.Config8Way()
	for _, order := range [][2]bool{{true, false}, {false, true}} {
		l := buildLauncher(cfg)
		l.prog, l.u = p, u
		for step := 0; step < 12; step++ {
			warm := order[step%2]
			set := sets[warm]
			cu := set.Units[(step*7+3)%len(set.Units)]
			fresh := buildLauncher(cfg)
			fresh.prog, fresh.u = p, u
			if err := l.launch(cu, nil); err != nil {
				t.Fatal(err)
			}
			if err := fresh.launch(cu, nil); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(l.machine, fresh.machine) {
				t.Fatalf("order %v step %d (warm=%v, unit %d): reused machine differs from a new one after launch",
					order, step, warm, cu.Index)
			}
			if !memoryEqual(l.mem, fresh.mem) || l.cpu.Arch() != fresh.cpu.Arch() {
				t.Fatalf("order %v step %d: reused memory or CPU differs from a new one after launch", order, step)
			}
			got, err := l.measure(cu)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.measure(cu)
			if err != nil {
				t.Fatal(err)
			}
			if got.Res.Cycles != want.Res.Cycles || math.Float64bits(got.Res.EnergyNJ) != math.Float64bits(want.Res.EnergyNJ) {
				t.Fatalf("order %v step %d: reused launcher measured %+v, new %+v", order, step, got.Res, want.Res)
			}
		}
	}
}

// BenchmarkLaunch times one replay worker's launch of a unit — rolling
// its launch state on by the unit's deltas, resetting the machine and
// restoring warm state and memory into it — over a warmed gzipx set
// launched in stream order, as a worker of a k = 1 plan does. launchUs
// is the launch alone, without the unit's detailed run.
func BenchmarkLaunch(b *testing.B) {
	p, sets := launcherSets(b, 200_000, 1)
	units := sets[true].Units
	l := buildLauncher(uarch.Config8Way())
	l.prog, l.u = p, 1000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.launch(units[i%len(units)], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "launchUs/unit")
}
