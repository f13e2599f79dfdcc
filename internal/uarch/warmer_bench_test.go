package uarch_test

import (
	"testing"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// TestWarmerForwardZeroAllocs pins the functional-warming loop — the
// capture sweep's entire per-instruction cost — to zero steady-state
// heap allocations.
func TestWarmerForwardZeroAllocs(t *testing.T) {
	spec, err := program.ByName("gccx")
	if err != nil {
		t.Fatal(err)
	}
	p := program.MustGenerate(spec, 400_000)
	cfg := uarch.Config8Way()
	m := uarch.NewMachine(cfg)
	w := uarch.NewWarmer(m, cfg)
	cpu := functional.New(p)
	if err := w.ForwardBatch(cpu, 100_000); err != nil {
		t.Fatal(err) // reach steady state first
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := w.ForwardBatch(cpu, 1000); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Warmer.ForwardBatch allocates %.4f objects per 1000 instructions; want 0", allocs)
	}
}

// TestRunWarmZeroAllocs pins the capture sweep's two stages, run in
// turn on one goroutine, to zero heap allocations in steady state: the
// interpreter recording warm work (functional.RunWarm) into a ring of a
// batch's size, and Warm over what it recorded.
func TestRunWarmZeroAllocs(t *testing.T) {
	spec, err := program.ByName("gccx")
	if err != nil {
		t.Fatal(err)
	}
	p := program.MustGenerate(spec, 400_000)
	cfg := uarch.Config8Way()
	w := uarch.NewWarmer(uarch.NewMachine(cfg), cfg)
	cpu := functional.New(p)
	ring := make([]functional.DynRec, 4096)
	step := func(max uint64) {
		recs, _, err := cpu.RunWarm(ring, max, cfg.IL1.BlockBits)
		if err != nil {
			t.Fatal(err)
		}
		w.Warm(ring[:recs])
	}
	for range 25 {
		step(4096) // reach steady state first
	}
	allocs := testing.AllocsPerRun(100, func() { step(1000) })
	if allocs != 0 {
		t.Fatalf("RunWarm and Warm allocate %.4f objects per 1000 instructions; want 0", allocs)
	}
}

// BenchmarkWarmerForward measures functional warming throughput in
// instructions (b.N = warmed instructions) — the speed of the capture
// sweep that bounds the pipelined engine's wall clock.
func BenchmarkWarmerForward(b *testing.B) {
	spec, err := program.ByName("gccx")
	if err != nil {
		b.Fatal(err)
	}
	p := program.MustGenerate(spec, 4_000_000)
	cfg := uarch.Config8Way()
	m := uarch.NewMachine(cfg)
	w := uarch.NewWarmer(m, cfg)
	cpu := functional.New(p)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := b.N - done
		if n > 100_000 {
			n = 100_000
		}
		if cpu.Halted {
			b.StopTimer()
			cpu = functional.New(p)
			m = uarch.NewMachine(cfg)
			w = uarch.NewWarmer(m, cfg)
			b.StartTimer()
		}
		if err := w.ForwardBatch(cpu, uint64(n)); err != nil {
			b.Fatal(err)
		}
		done += n
	}
}
