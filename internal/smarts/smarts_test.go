package smarts_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
)

func genBench(t testing.TB, name string, length uint64) *program.Program {
	t.Helper()
	spec, err := program.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return program.MustGenerate(spec, length)
}

// TestSamplingMatchesTruth is the core end-to-end check: a SMARTS run
// with functional warming estimates the full-stream CPI and EPI within a
// few percent.
func TestSamplingMatchesTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run is slow")
	}
	cfg := uarch.Config8Way()
	for _, bench := range []string{"gzipx", "twolfx", "gccx"} {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			p := genBench(t, bench, 1_200_000)
			ref, err := smarts.FullRun(p, cfg, 1000)
			if err != nil {
				t.Fatalf("FullRun: %v", err)
			}
			plan := smarts.PlanForN(p.Length, 1000, 2000, 250, smarts.FunctionalWarming, 0)
			res, err := smarts.SerialLoop(context.Background(), p, cfg, plan)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			est := res.CPIEstimate(stats.Alpha997)
			errRel := math.Abs(est.Mean-ref.TrueCPI()) / ref.TrueCPI()
			t.Logf("%s: true CPI %.4f, est %.4f (err %.2f%%, CI ±%.2f%%, n=%d)",
				bench, ref.TrueCPI(), est.Mean, errRel*100, est.RelCI*100, est.N)
			// The error must be within the predicted CI plus a warming
			// bias allowance of 2% (paper Section 5.2).
			if errRel > est.RelCI+0.02 {
				t.Errorf("CPI error %.2f%% exceeds CI %.2f%% + 2%% bias bound",
					errRel*100, est.RelCI*100)
			}
			epi := res.EPIEstimate(stats.Alpha997)
			epiErr := math.Abs(epi.Mean-ref.TrueEPI()) / ref.TrueEPI()
			if epiErr > epi.RelCI+0.02 {
				t.Errorf("EPI error %.2f%% exceeds CI %.2f%% + 2%% bias bound",
					epiErr*100, epi.RelCI*100)
			}
		})
	}
}

// TestWarmingReducesBias checks the paper's central qualitative claim:
// no-warming sampling is more biased than functional-warming sampling.
func TestWarmingReducesBias(t *testing.T) {
	if testing.Short() {
		t.Skip("full reference run is slow")
	}
	cfg := uarch.Config8Way()
	p := genBench(t, "parserx", 1_000_000)
	ref, err := smarts.FullRun(p, cfg, 1000)
	if err != nil {
		t.Fatalf("FullRun: %v", err)
	}
	truth := ref.TrueCPI()

	errAt := func(mode smarts.WarmingMode, w uint64) float64 {
		plan := smarts.PlanForN(p.Length, 1000, w, 200, mode, 0)
		res, err := smarts.SerialLoop(context.Background(), p, cfg, plan)
		if err != nil {
			t.Fatalf("Run(%v): %v", mode, err)
		}
		return math.Abs(res.CPIEstimate(stats.Alpha997).Mean-truth) / truth
	}

	cold := errAt(smarts.NoWarming, 0)
	warm := errAt(smarts.FunctionalWarming, 2000)
	t.Logf("parserx: cold error %.2f%%, functional-warming error %.2f%%", cold*100, warm*100)
	if warm >= cold {
		t.Errorf("functional warming (%.2f%%) did not beat cold sampling (%.2f%%)", warm*100, cold*100)
	}
}

// TestPlanForN checks interval derivation.
func TestPlanForN(t *testing.T) {
	plan := smarts.PlanForN(10_000_000, 1000, 2000, 100, smarts.FunctionalWarming, 0)
	if plan.K != 100 {
		t.Errorf("K = %d, want 100", plan.K)
	}
	// More units requested than exist: every unit is sampled.
	plan = smarts.PlanForN(50_000, 1000, 2000, 100, smarts.NoWarming, 0)
	if plan.K != 1 {
		t.Errorf("K = %d, want 1", plan.K)
	}
}

// TestRunDeterministic checks two identical sampling runs agree exactly.
func TestRunDeterministic(t *testing.T) {
	p := genBench(t, "craftyx", 300_000)
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, 1000, 50, smarts.FunctionalWarming, 0)
	r1, err := smarts.SerialLoop(context.Background(), p, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := smarts.SerialLoop(context.Background(), p, cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Units) != len(r2.Units) {
		t.Fatalf("unit counts differ: %d vs %d", len(r1.Units), len(r2.Units))
	}
	for i := range r1.Units {
		if r1.Units[i] != r2.Units[i] {
			t.Fatalf("unit %d differs: %+v vs %+v", i, r1.Units[i], r2.Units[i])
		}
	}
}

// TestPhaseOffsetsDiffer checks that different systematic phases measure
// different units (the mechanism behind bias estimation).
func TestPhaseOffsetsDiffer(t *testing.T) {
	p := genBench(t, "gzipx", 300_000)
	cfg := uarch.Config8Way()
	base := smarts.PlanForN(p.Length, 1000, 1000, 30, smarts.FunctionalWarming, 0)
	if base.K < 2 {
		t.Skip("population too small for phases")
	}
	r0, err := smarts.SerialLoop(context.Background(), p, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	base.J = base.K / 2
	r1, err := smarts.SerialLoop(context.Background(), p, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Units[0].Index == r1.Units[0].Index {
		t.Error("phase offset did not shift sampled units")
	}
}

// TestWorstCaseW checks the Section 4.4 bound for the paper's 8-way
// machine: 16 × 100 × 8 = 12800.
func TestWorstCaseW(t *testing.T) {
	if w := smarts.WorstCaseW(uarch.Config8Way()); w != 12800 {
		t.Errorf("WorstCaseW(8-way) = %d, want 12800", w)
	}
	if w := smarts.RecommendedW(uarch.Config8Way()); w != 2000 {
		t.Errorf("RecommendedW(8-way) = %d, want 2000", w)
	}
	if w := smarts.RecommendedW(uarch.Config16Way()); w != 4000 {
		t.Errorf("RecommendedW(16-way) = %d, want 4000", w)
	}
}
