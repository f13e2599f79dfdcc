package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cacheline"
	"repro/internal/energy"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// hotTypes are the structs a simulation goroutine writes on every
// instruction: a replay worker's launcher and what it reaches, the
// sweep interpreter stage's CPU and memory, the sweep warm stage's
// machine. Each must keep its fields off every line another goroutine's
// hot structs reach.
var hotTypes = map[reflect.Type]bool{
	reflect.TypeFor[launcher]():        true,
	reflect.TypeFor[uarch.Machine]():   true,
	reflect.TypeFor[uarch.Core]():      true,
	reflect.TypeFor[cache.Hierarchy](): true,
	reflect.TypeFor[cache.Cache]():     true,
	reflect.TypeFor[cache.TLB]():       true,
	reflect.TypeFor[bpred.Unit]():      true,
	reflect.TypeFor[energy.Meter]():    true,
	reflect.TypeFor[mem.Memory]():      true,
	reflect.TypeFor[functional.CPU]():  true,
}

// hotSpan is the byte range [lo, hi) of one hot struct's fields — the
// struct minus its leading and trailing pads, or all of it if it has
// none — and the goroutine that writes it.
type hotSpan struct {
	owner, what string
	lo, hi      uintptr
}

// hotSpans returns the field ranges of every hot struct reachable from
// root through pointers between hot structs. A hot struct held by value
// inside another (the launcher's CPU) lies inside its holder's range.
func hotSpans(owner string, root any) []hotSpan {
	pad := reflect.TypeFor[cacheline.Pad]()
	var spans []hotSpan
	seen := map[uintptr]bool{}
	var fields func(v reflect.Value)
	visit := func(p reflect.Value) {
		t := p.Type().Elem()
		if p.IsNil() || !hotTypes[t] || seen[p.Pointer()] {
			return
		}
		seen[p.Pointer()] = true
		lo, hi := p.Pointer(), p.Pointer()+t.Size()
		if t.Field(0).Type == pad {
			lo += cacheline.Size
		}
		if t.Field(t.NumField()-1).Type == pad {
			hi -= cacheline.Size
		}
		spans = append(spans, hotSpan{owner, t.String(), lo, hi})
		fields(p.Elem())
	}
	fields = func(v reflect.Value) {
		for i := range v.NumField() {
			switch f := v.Field(i); {
			case f.Kind() == reflect.Pointer:
				visit(f)
			case f.Kind() == reflect.Struct && hotTypes[f.Type()]:
				fields(f)
			}
		}
	}
	visit(reflect.ValueOf(root))
	return spans
}

// sharedLines reports every cacheline.Size-aligned line that holds
// bytes of two owners' hot structs.
func sharedLines(spans []hotSpan) []string {
	byLine := map[uintptr]hotSpan{}
	var shared []string
	for _, s := range spans {
		for line := s.lo / cacheline.Size; line <= (s.hi-1)/cacheline.Size; line++ {
			if o, ok := byLine[line]; ok && o.owner != s.owner {
				shared = append(shared, fmt.Sprintf("line %#x: %s's %s [%#x,%#x) and %s's %s [%#x,%#x)",
					line*cacheline.Size, o.owner, o.what, o.lo, o.hi, s.owner, s.what, s.lo, s.hi))
			}
			byLine[line] = s
		}
	}
	return shared
}

// TestPadsIsolateOwners builds what a streamed run's goroutines build —
// the sweep's CPU (its interpreter stage) and machine (its warm stage),
// as CaptureStream does, then two replay workers' launchers, as
// replayStream does — back to back on one goroutine, so the allocator
// packs them as tightly as it ever will, and requires that no line holds
// fields of two of them. Without the pads the two launchers' meters,
// predictors and memories sit a fraction of a line apart.
func TestPadsIsolateOwners(t *testing.T) {
	spec, err := program.ByName("gccx")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := program.Generate(spec, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg := uarch.Config8Way()
	cpu := functional.New(prog)
	machine := uarch.NewMachine(cfg)
	a := buildLauncher(cfg)
	b := buildLauncher(cfg)

	var spans []hotSpan
	spans = append(spans, hotSpans("sweep interpreter", cpu)...)
	spans = append(spans, hotSpans("sweep warm stage", machine)...)
	spans = append(spans, hotSpans("worker A", a)...)
	spans = append(spans, hotSpans("worker B", b)...)
	if len(spans) != 2+11+2*14 {
		t.Fatalf("found %d hot structs, want 41: the walk no longer reaches them all", len(spans))
	}
	for _, s := range sharedLines(spans) {
		t.Error(s)
	}
}
