package repro

// This file regenerates every table and figure of the SMARTS paper's
// evaluation, one benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the paper-shaped table to the test log and
// reports its headline quantities as custom metrics. References (the
// full-stream detailed ground truth) are cached in a shared context so
// the suite pays for each one once. For other scales run
// `go run ./cmd/smartsim -experiment NAME -scale S`.

import (
	"context"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/uarch"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// ctx returns the shared small-scale experiment context, preloading the
// 8-way references in parallel on first use.
func ctx(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Small)
		if err := benchCtx.Preload(context.Background(), uarch.Config8Way(), 8); err != nil {
			b.Fatalf("preload references: %v", err)
		}
	})
	return benchCtx
}

func BenchmarkFig2CoeffVariation(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(context.Background(), c, uarch.Config8Way())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			// Headline: CV at U=1000, averaged over the suite (the paper
			// observes values clustering near 1.0).
			var sum float64
			var n int
			for bi := range r.Benches {
				for ui, u := range r.Us {
					if u == 1000 && r.CV[bi][ui] >= 0 {
						sum += r.CV[bi][ui]
						n++
					}
				}
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n), "meanCV@U=1000")
			}
		}
	}
}

func BenchmarkFig3MinInstructions(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(context.Background(), c, uarch.Config8Way())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			var worst uint64
			for _, row := range r.Rows {
				if row.MinInsts[0] > worst {
					worst = row.MinInsts[0]
				}
			}
			b.ReportMetric(float64(worst), "worstMinInsts±3%@99.7%")
		}
	}
}

func BenchmarkFig4PerfModel(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			b.ReportMetric(r.Points[0].FW, "rateFW@W=0")
		}
	}
}

func BenchmarkFig5OptimalU(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(context.Background(), c, uarch.Config8Way(), nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
		}
	}
}

func BenchmarkTable4DetailedWarming(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(context.Background(), c, uarch.Config8Way(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			// Headline: how many benchmarks remain biased at the largest
			// swept W (the paper's ">500k" bucket).
			unfixed := 0
			for _, row := range r.Rows {
				if row.RequiredW == 0 {
					unfixed++
				}
			}
			b.ReportMetric(float64(unfixed), "benchesNeedingW>max")
		}
	}
}

func BenchmarkTable5FunctionalWarmingBias(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(context.Background(), c, uarch.Config8Way())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			b.ReportMetric(r.WorstBias()*100, "worstBias%")
		}
	}
}

func BenchmarkFig6CPIEstimation(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(context.Background(), c, uarch.Config8Way())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			b.ReportMetric(r.MeanAbsErr*100, "meanAbsCPIErr%")
		}
	}
}

func BenchmarkFig7EPIEstimation(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(context.Background(), c, uarch.Config8Way())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			b.ReportMetric(r.MeanAbsErr*100, "meanAbsEPIErr%")
			b.ReportMetric(r.MeanCIRatio, "EPIvsCPICIRatio")
		}
	}
}

func BenchmarkTable6Runtimes(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6(context.Background(), c, uarch.Config8Way())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			b.ReportMetric(r.AvgSpeedup, "avgSpeedupX")
		}
	}
}

func BenchmarkFig8SimPointComparison(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(context.Background(), c, uarch.Config8Way(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			b.ReportMetric(r.MeanSimPointErr*100, "meanSimPointErr%")
			b.ReportMetric(r.MeanSMARTSErr*100, "meanSMARTSErr%")
		}
	}
}

// BenchmarkAblationWarming runs the warming-component ablation (an
// extension beyond the paper: which warmed structure carries functional
// warming's benefit).
func BenchmarkAblationWarming(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationWarming(context.Background(), c, uarch.Config8Way(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
		}
	}
}

// BenchmarkEngineReplay isolates detailed replay — the slowest layer of
// a sampled run, which benchmark/'s end-to-end workloads only see mixed
// with the sweep — on the repository benchmark's two paper-regime plans
// (U=1000, W=2000, a unit ≈ 3000 detailed instructions): gccx 12M
// sampled sparsely (k=166, 73 units: long delta chains, large deltas)
// and craftyx 10M sampled densely (k=6, 1661 units). The set is
// captured outside the timer and replayed on one worker, so the wall
// clock splits exactly into coreUs/unit (time inside uarch.Core.Run,
// the paper's n·(U+W) term) and launchUs/unit (everything else the
// engine does per unit: roll the launch state forward, reset and
// restore the machine, rebuild memory) — the per-unit constant the
// paper's cost model does not have. allocKB/unit is heap allocated per
// replayed unit; units/s is one worker's replay throughput.
func BenchmarkEngineReplay(b *testing.B) {
	for _, tc := range []struct {
		name, bench string
		length, k   uint64
	}{
		{"gccx-sparse", "gccx", 12_000_000, 166},
		{"craftyx", "craftyx", 10_000_000, 6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			spec, err := program.ByName(tc.bench)
			if err != nil {
				b.Fatal(err)
			}
			p, err := program.Generate(spec, tc.length)
			if err != nil {
				b.Fatal(err)
			}
			cfg := uarch.Config8Way()
			plan := smarts.Plan{U: 1000, W: smarts.RecommendedW(cfg), K: tc.k, Warming: smarts.FunctionalWarming}
			set, err := checkpoint.Capture(context.Background(), p, cfg, plan.CheckpointParams())
			if err != nil {
				b.Fatal(err)
			}
			var core time.Duration
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := engine.ReplayRange(context.Background(), p, cfg, plan.U, set, 0, len(set.Units),
					engine.Options{Workers: 1}, func(ru engine.RangeUnit) bool {
						core += ru.Elapsed
						return true
					})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms1)
			units := float64(b.N * len(set.Units))
			b.ReportMetric(float64((b.Elapsed()-core).Microseconds())/units, "launchUs/unit")
			b.ReportMetric(float64(core.Microseconds())/units, "coreUs/unit")
			b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/units, "allocKB/unit")
			b.ReportMetric(units/b.Elapsed().Seconds(), "units/s")
		})
	}
}

// BenchmarkSixteenWay exercises the 16-way configuration on the bias
// experiment (the paper reports Table 5 for both machines).
func BenchmarkSixteenWayTable5(b *testing.B) {
	c := ctx(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(context.Background(), c, uarch.Config16Way())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(os.Stdout)
			b.ReportMetric(r.WorstBias()*100, "worstBias%")
		}
	}
}
