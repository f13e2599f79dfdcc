package uarch_test

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/uarch"
)

// TestValidateRejectsZeroLatencies: the core delivers a result to its
// dependants for a cycle after the producer's issue cycle, so Validate
// must refuse every latency that would make a value usable in the cycle
// it issues, field by field.
func TestValidateRejectsZeroLatencies(t *testing.T) {
	if err := uarch.Config8Way().Validate(); err != nil {
		t.Fatalf("baseline config: %v", err)
	}
	bad := map[string]func(*uarch.Config){
		"Lat.L1=0":   func(c *uarch.Config) { c.Lat.L1 = 0 },
		"Lat.L2=0":   func(c *uarch.Config) { c.Lat.L2 = 0 },
		"Lat.Mem=0":  func(c *uarch.Config) { c.Lat.Mem = 0 },
		"Lat.TLB=-1": func(c *uarch.Config) { c.Lat.TLB = -1 },
	}
	for cls := 0; cls < isa.NumClasses; cls++ {
		bad[fmt.Sprintf("OpLat[%d]=0", cls)] = func(c *uarch.Config) { c.OpLat[cls] = 0 }
	}
	for name, mutate := range bad {
		cfg := uarch.Config8Way()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", name)
		}
	}
}

// TestWakeHorizonFollowsConfig: the wake wheel is sized from the
// configuration's own latencies, a power of two beyond the longest.
func TestWakeHorizonFollowsConfig(t *testing.T) {
	cfg := uarch.Config8Way()
	if got := cfg.WakeHorizon(); got != 512 { // TLB 200 + Mem 100
		t.Errorf("8-way horizon %d, want 512", got)
	}
	cfg.Lat.Mem, cfg.Lat.TLB = 900, 300
	if got := cfg.WakeHorizon(); got != 2048 {
		t.Errorf("slow-memory horizon %d, want 2048", got)
	}
	cfg = uarch.Config8Way()
	cfg.OpLat[isa.ClassIntDiv] = 512
	if got := cfg.WakeHorizon(); got != 1024 {
		t.Errorf("slow-divide horizon %d, want 1024", got)
	}
	cfg.Lat = uarch.Config8Way().Lat
	cfg.OpLat[isa.ClassIntDiv] = 20
	cfg.Lat.Mem, cfg.Lat.TLB, cfg.Lat.L2 = 3, 0, 2
	if got := cfg.WakeHorizon(); got != 64 {
		t.Errorf("fast-machine horizon %d, want the 64-cycle floor", got)
	}
}
