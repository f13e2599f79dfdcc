package uarch_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// TestMachineAndCoreResetEqualNew is the reset contract a replay worker
// relies on: after a real detailed run (caches, predictor, energy meter
// and cycle counter dirtied, every pipeline buffer left full of stale
// entries, the waiter bitmaps, wake wheel, ready mask and ring positions
// scribbled over), Machine.Reset + Core.Reset leave a machine and core
// indistinguishable from freshly constructed ones — field for field,
// and in the cycles, marks and energy bits of the next run.
func TestMachineAndCoreResetEqualNew(t *testing.T) {
	spec, err := program.ByName("gccx")
	if err != nil {
		t.Fatal(err)
	}
	p := program.MustGenerate(spec, 100_000)
	for _, cfg := range []uarch.Config{uarch.Config8Way(), uarch.Config16Way()} {
		t.Run(cfg.Name, func(t *testing.T) {
			m := uarch.NewMachine(cfg)
			core := uarch.NewCore(m)
			if _, err := core.Run(&uarch.Source{CPU: functional.New(p)}, 30_000, nil); err != nil {
				t.Fatal(err)
			}
			m.Hier.Snapshot(nil) // advance the snapshot chains too
			m.Pred.Snapshot(nil)
			core.Scribble() // and the wakeup state a drained pipeline leaves clean
			m.Reset()
			core.Reset()

			freshM := uarch.NewMachine(cfg)
			fresh := uarch.NewCore(freshM)
			if !reflect.DeepEqual(m, freshM) {
				t.Fatal("reset machine differs from a new one")
			}
			if !reflect.DeepEqual(core, fresh) {
				t.Fatal("reset core differs from a new one")
			}

			run := func(c *uarch.Core) (uarch.RunStats, [2]uarch.Mark) {
				marks := [2]uarch.Mark{{At: 2000}, {At: 3000}}
				cpu := functional.New(p)
				if _, err := cpu.Run(40_000); err != nil {
					t.Fatal(err)
				}
				stats, err := c.Run(&uarch.Source{CPU: cpu}, 3000, marks[:])
				if err != nil {
					t.Fatal(err)
				}
				return stats, marks
			}
			gotStats, gotMarks := run(core)
			wantStats, wantMarks := run(fresh)
			if gotStats != wantStats || gotMarks != wantMarks ||
				math.Float64bits(gotMarks[1].EnergyNJ) != math.Float64bits(wantMarks[1].EnergyNJ) {
				t.Fatalf("reset core ran %+v %+v, new core %+v %+v", gotStats, gotMarks, wantStats, wantMarks)
			}
			if !reflect.DeepEqual(m, freshM) {
				t.Fatal("reset machine diverged from a new one over an identical run")
			}
		})
	}
}

// TestWarmerResetEqualsNew is the reset contract a reused sweep rig
// relies on: a machine and warmer that warmed a stream, took a snapshot
// and a delta, recorded a fetch block and ran with a partial component
// selection equal a new pair after Machine.Reset and Warmer.Reset —
// field for field, and in the snapshot a second identical warm takes.
func TestWarmerResetEqualsNew(t *testing.T) {
	spec, err := program.ByName("gccx")
	if err != nil {
		t.Fatal(err)
	}
	p := program.MustGenerate(spec, 50_000)
	cfg := uarch.Config8Way()
	warm := func(w *uarch.Warmer) *uarch.WarmSnapshot {
		cpu := functional.New(p)
		if err := w.ForwardBatch(cpu, 20_000); err != nil {
			t.Fatal(err)
		}
		return w.Snapshot(nil)
	}
	m := uarch.NewMachine(cfg)
	w := uarch.NewWarmer(m, cfg)
	w.Components = uarch.WarmComponents{DCache: true}
	snap := warm(w)
	if _, err := w.Delta(nil, snap.Seq); err != nil {
		t.Fatal(err)
	}
	m.Reset()
	w.Reset()

	freshM := uarch.NewMachine(cfg)
	fresh := uarch.NewWarmer(freshM, cfg)
	if !reflect.DeepEqual(w, fresh) {
		t.Fatal("reset warmer differs from a new one")
	}
	if got, want := warm(w), warm(fresh); !reflect.DeepEqual(got, want) {
		t.Fatal("reset warmer's snapshot differs from a new one's")
	}
}
