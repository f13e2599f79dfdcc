package repro

// This file regenerates every table and figure of the SMARTS paper's
// evaluation, one benchmark per artifact:
//
//	go test -bench=. -benchmem
//
// Each benchmark prints the paper-shaped table to the test log and
// reports its headline quantities as custom metrics. References (the
// full-stream detailed ground truth) are cached in a shared context so
// the suite pays for each one once. Run with -scale via
// cmd/smartsweep for other scales.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/sim"
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

// BenchmarkEngineSerialVsParallel tracks the checkpointed parallel
// engine's scaling: the same ≥1M-instruction sampling plan runs once on
// one worker and once on four, reporting wall-clock speedup and
// sampled units per second. The two runs must agree bit-for-bit — the
// engine's determinism guarantee — so the benchmark doubles as a
// cross-worker-count consistency check. Note the speedup metric is
// bounded by the machine's core count (1.0x on a single-core runner).
func BenchmarkEngineSerialVsParallel(b *testing.B) {
	spec, err := program.ByName("gccx")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Generate(spec, 2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 400,
		smarts.FunctionalWarming, 0)
	for i := 0; i < b.N; i++ {
		plan.Parallelism = 1
		start := time.Now()
		serial, err := smarts.RunContext(context.Background(), p, cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		serialTime := time.Since(start)

		plan.Parallelism = 4
		start = time.Now()
		par, err := smarts.RunContext(context.Background(), p, cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		parTime := time.Since(start)

		if i == 0 {
			sCPI := serial.CPIEstimate(stats.Alpha997)
			pCPI := par.CPIEstimate(stats.Alpha997)
			if sCPI != pCPI {
				b.Fatalf("worker counts disagree: %v vs %v", sCPI, pCPI)
			}
			b.ReportMetric(float64(serialTime)/float64(parTime), "speedupX@4workers")
			b.ReportMetric(float64(len(par.Units))/parTime.Seconds(), "units/s")
			b.ReportMetric(float64(len(serial.Units))/serialTime.Seconds(), "serialUnits/s")
		}
	}
}

// BenchmarkEnginePipelined tracks the streaming capture→replay
// pipeline on a ≥1M-instruction sampling plan at 4 workers (units/s),
// and the checkpoint store's payoff: storeSpeedupX is the cold (sweep +
// save) wall clock over a warm-checkpoint-store run that skips the
// sweep entirely. The store comparison runs at a sparser sampling
// interval (k≈40, still ~100× denser than the paper's k≈5000): the
// store's advantage is the ratio of swept instructions to snapshot
// bytes, so it grows linearly with k and the dense pipeline plan would
// understate it. Both runs of the store plan must agree bit for bit.
func BenchmarkEnginePipelined(b *testing.B) {
	spec, err := program.ByName("gccx")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Generate(spec, 2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 400,
		smarts.FunctionalWarming, 0)
	opt := func() smarts.EngineOptions { return smarts.EngineOptions{Workers: 4} }
	for i := 0; i < b.N; i++ {
		start := time.Now()
		streamed, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, opt())
		if err != nil {
			b.Fatal(err)
		}
		streamedTime := time.Since(start)

		// Store cycle on the sparse plan: one cold run (sweep + save),
		// one warm run (load, no sweep).
		sparse := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 50,
			smarts.FunctionalWarming, 0)
		store, err := checkpoint.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		o := opt()
		o.Store = store
		start = time.Now()
		cold, err := smarts.RunSampledContext(context.Background(), p, cfg, sparse, o)
		if err != nil {
			b.Fatal(err)
		}
		coldTime := time.Since(start)
		start = time.Now()
		cached, err := smarts.RunSampledContext(context.Background(), p, cfg, sparse, o)
		if err != nil {
			b.Fatal(err)
		}
		cachedTime := time.Since(start)
		if !cached.SweepCached {
			b.Fatal("warm store run did not skip the sweep")
		}

		if i == 0 {
			if cc, wc := cold.CPIEstimate(stats.Alpha997), cached.CPIEstimate(stats.Alpha997); cc != wc {
				b.Fatalf("store cycle disagrees: %v vs %v", wc, cc)
			}
			b.ReportMetric(float64(coldTime)/float64(cachedTime), "storeSpeedupX")
			b.ReportMetric(float64(len(streamed.Units))/streamedTime.Seconds(), "units/s")
		}
	}
}

// BenchmarkEngineReplay isolates detailed replay — the slowest layer of
// a sampled run, and the one the other engine benchmarks only see mixed
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

// BenchmarkDistributedLoopback tracks the distributed sampling service
// against the in-process engine it must reproduce: a loopback
// coordinator with two workers (two replay workers each, matching
// BenchmarkEnginePipelined's 4) runs the same ≥1M-instruction plan as
// BenchmarkEnginePipelined. shardedUnits/s is distributed replay
// throughput on a warm sweep cache, and mergeOverheadX is distributed
// wall clock over local engine wall clock — the HTTP/JSON shard
// round-trip cost, since both sides replay identical snapshot sets.
// Both runs must agree bit for bit.
func BenchmarkDistributedLoopback(b *testing.B) {
	spec, err := program.ByName("gccx")
	if err != nil {
		b.Fatal(err)
	}
	p, err := program.Generate(spec, 2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	cfg := uarch.Config8Way()
	plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), 400,
		smarts.FunctionalWarming, 0)

	coord, err := dist.NewCoordinator(dist.Options{})
	if err != nil {
		b.Fatal(err)
	}
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	for i := 0; i < 2; i++ {
		var w *dist.Worker
		var h http.Handler
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(rw, r)
		}))
		defer srv.Close()
		w = dist.NewWorker(dist.WorkerOptions{
			Coordinator:  coordSrv.URL,
			Self:         srv.URL,
			Workers:      2,
			PollInterval: 5 * time.Millisecond,
		})
		h = w.Handler()
		coord.AddWorker(srv.URL)
	}
	client := dist.NewClient(coordSrv.URL)
	req := func() *sim.Request {
		return sim.NewRequest("gccx", sim.Length(2_000_000),
			sim.UnitSize(plan.U), sim.Warmup(plan.W), sim.Interval(plan.K),
			sim.Phase(plan.J), sim.Warming(sim.FunctionalWarming))
	}

	cache := checkpoint.NewMemCache()
	local := func() (*smarts.Result, time.Duration) {
		start := time.Now()
		res, err := smarts.RunSampledContext(context.Background(), p, cfg, plan, smarts.EngineOptions{Workers: 4, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		return res, time.Since(start)
	}
	// Warm both sides' sweep caches so the measured loop compares replay
	// and merge, not sweep scheduling.
	localRes, _ := local()
	if _, err := client.Run(context.Background(), req()); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		rep, err := client.Run(context.Background(), req())
		if err != nil {
			b.Fatal(err)
		}
		distTime := time.Since(start)

		b.StopTimer()
		_, localTime := local()
		if i == 0 {
			res := rep.Result()
			if got, want := res.CPIEstimate(stats.Alpha997), localRes.CPIEstimate(stats.Alpha997); got != want {
				b.Fatalf("distributed estimate disagrees: %v vs %v", got, want)
			}
			b.ReportMetric(float64(len(res.Units))/distTime.Seconds(), "shardedUnits/s")
			b.ReportMetric(float64(distTime)/float64(localTime), "mergeOverheadX")
		}
		b.StartTimer()
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
