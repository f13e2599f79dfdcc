package mem_test

import (
	"testing"

	"repro/internal/mem"
)

// TestAccessorsZeroAllocSteadyState pins the 64-bit accessors to zero
// heap allocations once the touched pages exist (the functional
// simulator's steady state).
func TestAccessorsZeroAllocSteadyState(t *testing.T) {
	m := mem.New()
	m.Write64(0x1000, 1) // allocate the page
	allocs := testing.AllocsPerRun(1000, func() {
		m.Write64(0x1008, 42)
		if m.Read64(0x1008) != 42 {
			t.Fatal("readback mismatch")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Read64/Write64 allocate %.1f objects/op; want 0", allocs)
	}
}

// BenchmarkMemRead64SamePage measures the same-page fast path — the
// dominant access pattern in simulator workloads.
func BenchmarkMemRead64SamePage(b *testing.B) {
	m := mem.New()
	m.Write64(0x1000, 7)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Read64(0x1000 + uint64(i&255)*8)
	}
	_ = sink
}

// BenchmarkMemWrite64SamePage measures the private-page write fast path.
func BenchmarkMemWrite64SamePage(b *testing.B) {
	m := mem.New()
	m.Write64(0x1000, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Write64(0x1000+uint64(i&255)*8, uint64(i))
	}
}

// BenchmarkMemRead64CrossPage alternates pages so every access misses
// the last-page cache, exercising the slow path's map lookup.
func BenchmarkMemRead64CrossPage(b *testing.B) {
	m := mem.New()
	m.Write64(0x1000, 1)
	m.Write64(0x2000, 2)
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Read64(0x1000 + uint64(i&1)<<12)
	}
	_ = sink
}

// BenchmarkRestore measures one replay launch's memory restore: a used
// memory takes an Image laid out like the suite's data segments (1,040
// pages from page 0x1000, three leaves) and writes one page, which
// copy-on-write makes private.
func BenchmarkRestore(b *testing.B) {
	src := mem.New()
	for n := uint64(0x1000); n < 0x1410; n++ {
		src.Write64(n*mem.PageSize, n)
	}
	img := src.Snapshot()
	m := img.NewMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Restore(img)
		m.Write64(0x1200*mem.PageSize, uint64(i))
	}
}
