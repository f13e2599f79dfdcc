package engine_test

import (
	"context"

	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
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

// bitsEqual asserts two floats are bit-identical, not merely close.
func bitsEqual(t *testing.T, what string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("%s not bit-identical: %v (%#x) vs %v (%#x)",
			what, a, math.Float64bits(a), b, math.Float64bits(b))
	}
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: for
// a fixed plan, the parallel run is byte-identical to the serial path
// (workers=1) at every worker count, across workloads and warming
// modes.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	cfg := uarch.Config8Way()
	for _, bench := range []string{"gccx", "mcfx"} {
		p := genProg(t, bench, 400_000)
		for _, warm := range []bool{true, false} {
			params := checkpoint.Params{
				U: 1000, W: 1000, K: 10, J: 0, FunctionalWarm: warm,
			}
			serial, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Units) < 20 {
				t.Fatalf("%s: too few units: %d", bench, len(serial.Units))
			}
			for _, workers := range []int{2, 4, 7} {
				par, err := engine.Run(context.Background(), p, cfg, params, engine.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if len(par.Units) != len(serial.Units) {
					t.Fatalf("%s warm=%v workers=%d: %d units vs %d serial",
						bench, warm, workers, len(par.Units), len(serial.Units))
				}
				for i := range par.Units {
					su, pu := serial.Units[i], par.Units[i]
					if su.Index != pu.Index || su.Cycles != pu.Cycles {
						t.Fatalf("%s warm=%v workers=%d unit %d: cycles %d vs %d",
							bench, warm, workers, i, pu.Cycles, su.Cycles)
					}
					bitsEqual(t, "unit CPI", pu.CPI, su.CPI)
					bitsEqual(t, "unit EPI", pu.EPI, su.EPI)
				}
			}
		}
	}
}

// TestEstimateBitIdentical runs the full smarts.RunSampledContext path
// at several worker counts on two workloads and two warming modes and asserts the
// CPI/EPI estimates and confidence intervals are byte-identical to the
// serial (workers=1) engine path.
func TestEstimateBitIdentical(t *testing.T) {
	cfg := uarch.Config8Way()
	for _, bench := range []string{"gzipx", "ammpx"} {
		p := genProg(t, bench, 400_000)
		for _, mode := range []smarts.WarmingMode{smarts.FunctionalWarming, smarts.DetailedWarming} {
			plan := smarts.PlanForN(p.Length, 1000, 1000, 50, mode, 0)
			serial, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, engine.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sCPI := serial.CPIEstimate(stats.Alpha997)
			sEPI := serial.EPIEstimate(stats.Alpha997)
			for _, workers := range []int{4, 3} {
				par, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, engine.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				pCPI := par.CPIEstimate(stats.Alpha997)
				pEPI := par.EPIEstimate(stats.Alpha997)
				if pCPI.N != sCPI.N {
					t.Fatalf("%s %v workers=%d: n %d vs %d", bench, mode, workers, pCPI.N, sCPI.N)
				}
				bitsEqual(t, "CPI mean", pCPI.Mean, sCPI.Mean)
				bitsEqual(t, "CPI CI", pCPI.RelCI, sCPI.RelCI)
				bitsEqual(t, "CPI CV", pCPI.CV, sCPI.CV)
				bitsEqual(t, "EPI mean", pEPI.Mean, sEPI.Mean)
				bitsEqual(t, "EPI CI", pEPI.RelCI, sEPI.RelCI)
			}
		}
	}
}

// TestEngineAccounting sanity-checks the instruction bookkeeping.
func TestEngineAccounting(t *testing.T) {
	cfg := uarch.Config8Way()
	p := genProg(t, "gzipx", 200_000)
	r, err := engine.Run(context.Background(), p, cfg, checkpoint.Params{U: 1000, W: 2000, K: 20, J: 0, FunctionalWarm: true}, engine.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeasuredInsts != uint64(len(r.Units))*1000 {
		t.Fatalf("measured %d insts for %d units", r.MeasuredInsts, len(r.Units))
	}
	if r.WarmingInsts == 0 || r.SweepInsts == 0 {
		t.Fatalf("missing accounting: warming %d, sweep %d", r.WarmingInsts, r.SweepInsts)
	}
	if r.PopulationUnits != p.Length/1000 {
		t.Fatalf("population %d, want %d", r.PopulationUnits, p.Length/1000)
	}
}
