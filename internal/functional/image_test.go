package functional_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/program"
)

// TestCPUsShareImageCopyOnWrite: two CPUs started from one Program
// write the same address; each sees only its own write, and the
// program's image and a third CPU still see the initial value.
func TestCPUsShareImageCopyOnWrite(t *testing.T) {
	p := loopProg(t, 100_000)
	seg := p.Segs[0]
	if len(seg.Data) < 8 {
		t.Fatalf("first segment holds %d bytes, want at least 8", len(seg.Data))
	}
	addr := seg.Addr
	orig := binary.LittleEndian.Uint64(seg.Data)

	a, b := functional.New(p), functional.New(p)
	a.Mem.Write64(addr, orig^1)
	b.Mem.Write64(addr, orig^2)
	if got := a.Mem.Read64(addr); got != orig^1 {
		t.Errorf("CPU a reads %#x, want its own write %#x", got, orig^1)
	}
	if got := b.Mem.Read64(addr); got != orig^2 {
		t.Errorf("CPU b reads %#x, want its own write %#x", got, orig^2)
	}
	if got := p.Image().Read64(addr); got != orig {
		t.Errorf("program image reads %#x after both writes, want the initial %#x", got, orig)
	}
	if got := functional.New(p).Mem.Read64(addr); got != orig {
		t.Errorf("a new CPU reads %#x, want the initial %#x", got, orig)
	}
}

// TestImageSurvivesFullRun: the image holds exactly the program's
// segments, and running a CPU from it to the Halt leaves every image
// page byte for byte as it was. gzipx stores into its initialized data
// (gccx, like most of the suite, only reads its own).
func TestImageSurvivesFullRun(t *testing.T) {
	spec, err := program.ByName("gzipx")
	if err != nil {
		t.Fatal(err)
	}
	p, err := program.Generate(spec, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	fresh := p.Image().NewMemory()
	for _, s := range p.Segs {
		got := make([]byte, len(s.Data))
		fresh.ReadBytes(s.Addr, got)
		if !bytes.Equal(got, s.Data) {
			t.Fatalf("image differs from the segment at %#x", s.Addr)
		}
	}
	before := map[uint64][mem.PageSize]byte{}
	p.Image().VisitPages(func(num uint64, data *[mem.PageSize]byte) { before[num] = *data })

	cpu := functional.New(p)
	if _, err := cpu.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	written := 0
	var page [mem.PageSize]byte
	for _, num := range cpu.Mem.Pages() {
		cpu.Mem.ReadBytes(num<<mem.PageBits, page[:])
		if page != before[num] {
			written++
		}
	}
	if written == 0 {
		t.Fatal("the run wrote no page; the check below would prove nothing")
	}

	after := 0
	p.Image().VisitPages(func(num uint64, data *[mem.PageSize]byte) {
		after++
		if want, ok := before[num]; !ok || *data != want {
			t.Errorf("image page %#x changed by a run that wrote %d pages", num, written)
		}
	})
	if after != len(before) {
		t.Errorf("image holds %d pages after the run, %d before", after, len(before))
	}
}
