package experiments

import (
	"context"

	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/simpoint"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// Fig8Row compares the estimators on one benchmark.
type Fig8Row struct {
	Bench       string
	TrueCPI     float64
	SimPointCPI float64
	SimPointErr float64 // signed relative, cold-state (published config)
	// SimPointWarmErr is the warmed-fast-forward SimPoint variant's
	// error, isolating representativeness error from cold start.
	SimPointWarmErr float64
	SimPointK       int
	SMARTSCPI       float64
	SMARTSErr       float64 // signed relative
}

// Fig8Result reproduces Figure 8: per-benchmark CPI error of SimPoint
// versus SMARTS on the same machine. The claims to reproduce: SimPoint's
// average error is several times SMARTS's (paper: 3.7% vs 0.6%), with a
// much worse tail (paper: -14.3% on gcc-2), because SimPoint weights a
// single instance of each behaviour cluster and offers no confidence
// bound.
type Fig8Result struct {
	Config              string
	Rows                []Fig8Row // sorted by |SimPoint error| descending
	MeanSimPointErr     float64
	MeanSimPointWarmErr float64
	MeanSMARTSErr       float64
}

// Fig8 runs both estimators per benchmark.
func Fig8(ctx context.Context, ec *Context, cfg uarch.Config, benches []string) (*Fig8Result, error) {
	if benches == nil {
		benches = ec.Scale.BenchNames()
	}
	res := &Fig8Result{Config: cfg.Name}
	var spSum, spwSum, smSum float64
	for _, bench := range benches {
		ref, err := ec.Reference(ctx, bench, cfg)
		if err != nil {
			return nil, err
		}
		p, err := ec.Program(bench)
		if err != nil {
			return nil, err
		}
		truth := ref.TrueCPI()

		spRes, sel, err := simpoint.Run(p, cfg, ec.Scale.SPInterval, ec.Scale.SPMaxK, 42)
		if err != nil {
			return nil, fmt.Errorf("experiments: simpoint %s: %w", bench, err)
		}
		spWarm, err := simpoint.EstimateWarmed(p, cfg, sel)
		if err != nil {
			return nil, fmt.Errorf("experiments: warmed simpoint %s: %w", bench, err)
		}
		plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), ec.Scale.NInit,
			smarts.FunctionalWarming, 0)
		smRun, err := ec.sample(ctx, p, cfg, plan)
		if err != nil {
			return nil, err
		}
		smCPI := smRun.CPIEstimate(stats.Alpha997).Mean

		row := Fig8Row{
			Bench:           bench,
			TrueCPI:         truth,
			SimPointCPI:     spRes.CPI,
			SimPointErr:     (spRes.CPI - truth) / truth,
			SimPointWarmErr: (spWarm.CPI - truth) / truth,
			SimPointK:       sel.K,
			SMARTSCPI:       smCPI,
			SMARTSErr:       (smCPI - truth) / truth,
		}
		spSum += abs(row.SimPointErr)
		spwSum += abs(row.SimPointWarmErr)
		smSum += abs(row.SMARTSErr)
		res.Rows = append(res.Rows, row)
	}
	res.MeanSimPointErr = spSum / float64(len(res.Rows))
	res.MeanSimPointWarmErr = spwSum / float64(len(res.Rows))
	res.MeanSMARTSErr = smSum / float64(len(res.Rows))
	sort.Slice(res.Rows, func(i, j int) bool {
		return abs(res.Rows[i].SimPointErr) > abs(res.Rows[j].SimPointErr)
	})
	return res, nil
}

// Format renders the comparison.
func (r *Fig8Result) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: SimPoint vs SMARTS CPI error (%s)\n", r.Config)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\ttrue CPI\tSimPoint\terr(cold)\terr(warmed)\tK\tSMARTS\terr")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%+.1f%%\t%+.1f%%\t%d\t%.4f\t%+.2f%%\n",
			row.Bench, row.TrueCPI, row.SimPointCPI, row.SimPointErr*100,
			row.SimPointWarmErr*100, row.SimPointK, row.SMARTSCPI, row.SMARTSErr*100)
	}
	tw.Flush()
	fmt.Fprintf(w, "mean |error|: SimPoint(cold) %.1f%%, SimPoint(warmed ff) %.1f%%, SMARTS %.2f%%\n",
		r.MeanSimPointErr*100, r.MeanSimPointWarmErr*100, r.MeanSMARTSErr*100)
}
