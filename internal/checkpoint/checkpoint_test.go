package checkpoint_test

import (
	"context"

	"testing"

	"repro/internal/checkpoint"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

func genProg(t testing.TB, name string, length uint64) *program.Program {
	t.Helper()
	spec, err := program.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Generate(spec, length)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func capture(t testing.TB, p *program.Program, cfg uarch.Config, params checkpoint.Params) *checkpoint.Set {
	t.Helper()
	set, err := checkpoint.Capture(context.Background(), p, cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Units) == 0 {
		t.Fatal("no units captured")
	}
	return set
}

// memEqual compares two memories page by page.
func memEqual(t *testing.T, a, b *mem.Memory) {
	t.Helper()
	pagesA, pagesB := a.Pages(), b.Pages()
	seen := make(map[uint64]bool)
	for _, n := range pagesA {
		seen[n] = true
	}
	for _, n := range pagesB {
		seen[n] = true
	}
	bufA := make([]byte, mem.PageSize)
	bufB := make([]byte, mem.PageSize)
	for n := range seen {
		addr := n * mem.PageSize
		a.ReadBytes(addr, bufA)
		b.ReadBytes(addr, bufB)
		for i := range bufA {
			if bufA[i] != bufB[i] {
				t.Fatalf("memory differs at %#x", addr+uint64(i))
			}
		}
	}
}

// TestRoundTripResume verifies the core checkpoint property: a CPU
// restored from snapshot i and stepped forward reaches snapshot i+1's
// architectural state and memory exactly.
func TestRoundTripResume(t *testing.T) {
	p := genProg(t, "gccx", 300_000)
	cfg := uarch.Config8Way()
	set := capture(t, p, cfg, checkpoint.Params{
		U: 1000, W: 2000, K: 40, J: 0, FunctionalWarm: true,
	})
	if len(set.Units) < 3 {
		t.Fatalf("want >= 3 units, got %d", len(set.Units))
	}
	for i := 0; i+1 < len(set.Units) && i < 4; i++ {
		cur, next := set.Units[i], set.Units[i+1]
		curL, err := cur.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		cpu := functional.NewAt(p, cur.Arch, curL.Mem.NewMemory())
		n, err := cpu.Run(next.LaunchAt - cur.LaunchAt)
		if err != nil {
			t.Fatal(err)
		}
		if n != next.LaunchAt-cur.LaunchAt {
			t.Fatalf("unit %d: resumed CPU halted after %d insts", i, n)
		}
		if got := cpu.Arch(); got != next.Arch {
			t.Fatalf("unit %d: resumed arch state diverged:\n got %+v\nwant %+v", i, got, next.Arch)
		}
		nextL, err := next.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		memEqual(t, cpu.Mem, nextL.Mem.NewMemory())
	}
}

// TestRoundTripIsolation verifies that replaying (and mutating) a
// restored unit does not corrupt the checkpoint: a second restore
// produces an identical subsequent simulation.
func TestRoundTripIsolation(t *testing.T) {
	p := genProg(t, "mcfx", 300_000)
	cfg := uarch.Config8Way()
	set := capture(t, p, cfg, checkpoint.Params{
		U: 1000, W: 2000, K: 50, J: 3, FunctionalWarm: true,
	})
	cu := set.Units[len(set.Units)/2]

	run := func() (functional.ArchState, uint64) {
		machine := uarch.NewMachine(cfg)
		launch, err := cu.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if err := machine.Hier.Restore(launch.Warm.Hier); err != nil {
			t.Fatal(err)
		}
		if err := machine.Pred.Restore(launch.Warm.Pred); err != nil {
			t.Fatal(err)
		}
		cpu := functional.NewAt(p, cu.Arch, launch.Mem.NewMemory())
		src := &uarch.Source{CPU: cpu}
		core := uarch.NewCore(machine)
		n := cu.WarmLen() + 1000
		marks := []uarch.Mark{{At: n}}
		if _, err := core.Run(src, n, marks); err != nil {
			t.Fatal(err)
		}
		return cpu.Arch(), marks[0].Cycle
	}

	arch1, cyc1 := run()
	arch2, cyc2 := run()
	if arch1 != arch2 {
		t.Fatalf("second restore diverged architecturally:\n got %+v\nwant %+v", arch2, arch1)
	}
	if cyc1 != cyc2 {
		t.Fatalf("second restore diverged in timing: %d vs %d cycles", cyc2, cyc1)
	}
}

// TestWarmStateMatchesContinuousSweep verifies that the snapshotted warm
// state reproduces the sweep: warming forward from a restored snapshot
// yields the same structures as the uninterrupted sweep.
func TestWarmStateMatchesContinuousSweep(t *testing.T) {
	p := genProg(t, "gzipx", 200_000)
	cfg := uarch.Config8Way()
	set := capture(t, p, cfg, checkpoint.Params{
		U: 1000, W: 1000, K: 30, J: 0, FunctionalWarm: true,
	})
	if len(set.Units) < 2 {
		t.Fatalf("want >= 2 units, got %d", len(set.Units))
	}
	cur, next := set.Units[0], set.Units[1]

	machine := uarch.NewMachine(cfg)
	curL, err := cur.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := machine.Hier.Restore(curL.Warm.Hier); err != nil {
		t.Fatal(err)
	}
	if err := machine.Pred.Restore(curL.Warm.Pred); err != nil {
		t.Fatal(err)
	}
	warmer := uarch.NewWarmer(machine, cfg)
	cpu := functional.NewAt(p, cur.Arch, curL.Mem.NewMemory())
	if err := warmer.ForwardBatch(cpu, next.LaunchAt-cur.LaunchAt); err != nil {
		t.Fatal(err)
	}

	// Compare by probing: every DL1 block valid in the continuation must
	// match the sweep snapshot and vice versa. A direct struct compare
	// of the snapshots is the simplest faithful check.
	nextL, err := next.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	nextWarm := nextL.Warm
	gotH := machine.Hier.Snapshot(nil)
	wantH := nextWarm.Hier
	for name, pair := range map[string][2][]uint64{
		"IL1": {gotH.IL1.Tags, wantH.IL1.Tags},
		"DL1": {gotH.DL1.Tags, wantH.DL1.Tags},
		"L2":  {gotH.L2.Tags, wantH.L2.Tags},
	} {
		got, want := pair[0], pair[1]
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s tag %d differs after resumed warming", name, i)
			}
		}
	}
	gotP, wantP := machine.Pred.Snapshot(nil), nextWarm.Pred
	if gotP.History != wantP.History || gotP.RASTop != wantP.RASTop {
		t.Fatalf("predictor state differs after resumed warming")
	}
	for i := range wantP.Bimodal {
		if gotP.Bimodal[i] != wantP.Bimodal[i] || gotP.Gshare[i] != wantP.Gshare[i] {
			t.Fatalf("predictor counter %d differs after resumed warming", i)
		}
	}
}

// TestNoWarmSnapshots verifies cold-state capture: snapshots carry no
// warm state and launch at the unit start when W is unused.
func TestNoWarmSnapshots(t *testing.T) {
	p := genProg(t, "gzipx", 100_000)
	cfg := uarch.Config8Way()
	set := capture(t, p, cfg, checkpoint.Params{U: 1000, K: 20, J: 0})
	for _, u := range set.Units {
		if u.Warm != nil {
			t.Fatal("cold capture produced warm state")
		}
		if u.LaunchAt != u.Start {
			t.Fatalf("unit %d: launch %d != start %d with W=0", u.Index, u.LaunchAt, u.Start)
		}
		if u.Arch.Count != u.LaunchAt {
			t.Fatalf("unit %d: arch count %d != launch %d", u.Index, u.Arch.Count, u.LaunchAt)
		}
	}
}
