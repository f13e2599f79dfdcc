package functional_test

import (
	"runtime"
	"testing"

	"repro/internal/functional"
	"repro/internal/program"
)

// loopProg returns a generated suite workload: the realistic instruction
// mix (ALU, loads/stores, branches) the sweep hot loop actually sees.
func loopProg(tb testing.TB, length uint64) *program.Program {
	tb.Helper()
	spec, err := program.ByName("gccx")
	if err != nil {
		tb.Fatal(err)
	}
	p, err := program.Generate(spec, length)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestStepZeroAllocs pins functional.Step to zero heap allocations per
// instruction in steady state (all touched pages allocated). This is the
// allocation-regression guard for the capture sweep's innermost loop.
func TestStepZeroAllocs(t *testing.T) {
	p := loopProg(t, 200_000)
	cpu := functional.New(p)
	// Reach steady state: execute enough of the stream that the working
	// set's pages exist, then measure.
	if _, err := cpu.Run(50_000); err != nil {
		t.Fatal(err)
	}
	var d functional.DynInst
	allocs := testing.AllocsPerRun(20_000, func() {
		if err := cpu.Step(&d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("functional.Step allocates %.4f objects/instruction; want 0", allocs)
	}
}

// TestRunDynZeroAllocs pins the batch interpreter to zero heap
// allocations per instruction in steady state — the RunDyn analogue of
// TestStepZeroAllocs.
func TestRunDynZeroAllocs(t *testing.T) {
	p := loopProg(t, 400_000)
	cpu := functional.New(p)
	if _, err := cpu.Run(50_000); err != nil {
		t.Fatal(err) // reach steady state (pages allocated, code pre-decoded)
	}
	var ring [256]functional.DynRec
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cpu.RunDyn(ring[:], uint64(len(ring))); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("functional.RunDyn allocates %.4f objects per batch; want 0", allocs)
	}
}

// TestNewSharesImageAlloc pins what starting a CPU costs once the
// program's image exists: a page table over the image's pages, not a
// copy of the program's data.
func TestNewSharesImageAlloc(t *testing.T) {
	p := loopProg(t, 100_000)
	functional.New(p) // builds the program's image and predecoded code
	const n = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		functional.New(p)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	if limit := p.DataBytes() / 8; per > limit {
		t.Fatalf("functional.New allocates %d bytes per CPU, want under %d (an eighth of the %d-byte data image)",
			per, limit, p.DataBytes())
	}
}

// TestNewAtAllocFree pins the launch form the replay engine uses once
// per unit (cpu = *functional.NewAt(...), into a CPU it owns) to zero
// heap allocations: NewAt must stay small enough to inline, or its CPU
// escapes and every unit launch allocates one.
func TestNewAtAllocFree(t *testing.T) {
	p := loopProg(t, 100_000)
	src := functional.New(p)
	if _, err := src.Run(1_000); err != nil {
		t.Fatal(err)
	}
	st, m := src.Arch(), src.Mem
	var cpu functional.CPU
	allocs := testing.AllocsPerRun(100, func() {
		cpu = *functional.NewAt(p, st, m)
	})
	if allocs != 0 {
		t.Fatalf("relaunching a CPU with NewAt allocates %.1f objects, want 0", allocs)
	}
	if cpu.PC != st.PC || cpu.Count != st.Count {
		t.Fatalf("relaunched CPU at PC %d count %d, want %d, %d", cpu.PC, cpu.Count, st.PC, st.Count)
	}
}

// BenchmarkRunDyn measures the batch interpreter's per-instruction cost
// (b.N = executed instructions) with ring recording on, the
// configuration the warming sweep runs it in.
func BenchmarkRunDyn(b *testing.B) {
	p := loopProg(b, 2_000_000)
	cpu := functional.New(p)
	var ring [256]functional.DynRec
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		if cpu.Halted {
			b.StopTimer()
			cpu = functional.New(p)
			b.StartTimer()
		}
		k, err := cpu.RunDyn(ring[:], uint64(len(ring)))
		if err != nil {
			b.Fatal(err)
		}
		done += int(k)
	}
}

// BenchmarkStep measures the functional simulator's per-instruction cost
// on a realistic workload mix — the unit of work every fast-forward and
// sweep instruction pays.
func BenchmarkStep(b *testing.B) {
	p := loopProg(b, 2_000_000)
	cpu := functional.New(p)
	var d functional.DynInst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cpu.Halted {
			b.StopTimer()
			cpu = functional.New(p)
			b.StartTimer()
		}
		if err := cpu.Step(&d); err != nil {
			b.Fatal(err)
		}
	}
}
