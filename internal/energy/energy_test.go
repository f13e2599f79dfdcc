package energy_test

import (
	"math"
	"testing"

	"repro/internal/energy"
)

// TestMeterAccumulates checks event and cycle accounting.
func TestMeterAccumulates(t *testing.T) {
	model := energy.DefaultModel(1.0)
	m := energy.NewMeter(model)
	m.Add(energy.EvIntALU, 10)
	m.Tick(5)
	want := 10*model.PerEvent[energy.EvIntALU] + 5*model.PerCycle
	if math.Abs(m.TotalNJ()-want) > 1e-12 {
		t.Errorf("TotalNJ = %v, want %v", m.TotalNJ(), want)
	}
	if m.Count(energy.EvIntALU) != 10 || m.Cycles() != 5 {
		t.Error("counters wrong")
	}
}

// TestSnapshotDiff checks per-unit differencing.
func TestSnapshotDiff(t *testing.T) {
	m := energy.NewMeter(energy.DefaultModel(1.0))
	m.Add(energy.EvMem, 3)
	s := m.Snapshot()
	m.Add(energy.EvMem, 2)
	m.Tick(7)
	model := energy.DefaultModel(1.0)
	want := 2*model.PerEvent[energy.EvMem] + 7*model.PerCycle
	if math.Abs(m.Since(s)-want) > 1e-12 {
		t.Errorf("Since = %v, want %v", m.Since(s), want)
	}
	if m.CyclesSince(s) != 7 {
		t.Errorf("CyclesSince = %d", m.CyclesSince(s))
	}
}

// TestWidthScaling checks the 16-way model draws more per wide event.
func TestWidthScaling(t *testing.T) {
	m8 := energy.DefaultModel(1.0)
	m16 := energy.DefaultModel(1.6)
	if m16.PerEvent[energy.EvDispatch] <= m8.PerEvent[energy.EvDispatch] {
		t.Error("width scaling missing on dispatch")
	}
	if m16.PerEvent[energy.EvIntALU] != m8.PerEvent[energy.EvIntALU] {
		t.Error("per-ALU-op energy should not scale with width")
	}
	if m16.PerCycle <= m8.PerCycle {
		t.Error("baseline should scale with width")
	}
}

// TestEventNames checks every event has a distinct name.
func TestEventNames(t *testing.T) {
	seen := map[string]bool{}
	for e := energy.Event(0); int(e) < energy.NumEvents; e++ {
		name := e.String()
		if name == "" || name == "unknown" {
			t.Errorf("event %d unnamed", e)
		}
		if seen[name] {
			t.Errorf("duplicate event name %q", name)
		}
		seen[name] = true
	}
}

// TestResetEqualsNew: a reset meter is a new meter — the same event
// sequence accumulates to the same floating-point bits, which
// differencing a running total against a snapshot does not guarantee.
func TestResetEqualsNew(t *testing.T) {
	model := energy.DefaultModel(1.6)
	drive := func(m *energy.Meter) {
		for i := 0; i < 10_000; i++ {
			m.Add(energy.Event(i%energy.NumEvents), uint64(i%3+1))
			m.Tick(uint64(i%5 + 1))
		}
	}
	m := energy.NewMeter(model)
	m.Add(energy.EvMem, 7)
	m.Tick(1_000_003)
	drive(m)
	m.Reset()
	fresh := energy.NewMeter(model)
	if *m != *fresh {
		t.Fatal("reset meter differs from a new one")
	}
	drive(m)
	drive(fresh)
	if math.Float64bits(m.TotalNJ()) != math.Float64bits(fresh.TotalNJ()) || *m != *fresh {
		t.Fatalf("reset meter accumulated %v, new meter %v", m.TotalNJ(), fresh.TotalNJ())
	}
}

// TestTickSpanEqualsSingleTicks: a span of n cycles leaves the total
// with the bits n one-cycle ticks leave, wherever the span falls among
// the event additions — the property that lets the core jump over idle
// cycles without moving a sampling unit's energy.
func TestTickSpanEqualsSingleTicks(t *testing.T) {
	model := energy.DefaultModel(1.6)
	span, single := energy.NewMeter(model), energy.NewMeter(model)
	for i := 0; i < 5_000; i++ {
		e, n := energy.Event(i%energy.NumEvents), uint64(i%3+1)
		span.Add(e, n)
		single.Add(e, n)
		k := uint64(i*7919%400 + 1)
		span.Tick(k)
		for j := uint64(0); j < k; j++ {
			single.Tick(1)
		}
		if math.Float64bits(span.TotalNJ()) != math.Float64bits(single.TotalNJ()) || span.Cycles() != single.Cycles() {
			t.Fatalf("after step %d: Tick(%d) left %v over %d cycles, single ticks %v over %d",
				i, k, span.TotalNJ(), span.Cycles(), single.TotalNJ(), single.Cycles())
		}
	}
}
