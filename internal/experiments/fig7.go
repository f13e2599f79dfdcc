package experiments

import (
	"context"

	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// Fig7Row is one benchmark's EPI estimation outcome.
type Fig7Row struct {
	Bench     string
	TrueEPI   float64
	Est       stats.Estimate
	ActualErr float64
}

// Fig7Result reproduces Figure 7: per-benchmark energy-per-instruction
// error and 99.7% confidence interval with n_init units on the 8-way
// machine. The claims to reproduce: EPI confidence intervals are tighter
// than CPI's (energy varies less than cycles), and actual errors stay
// within CI plus the warming-bias allowance.
type Fig7Result struct {
	Config     string
	NInit      uint64
	Rows       []Fig7Row
	MeanAbsErr float64
	// MeanCIRatio is mean(EPI CI)/mean(CPI CI), expected < 1.
	MeanCIRatio float64
}

// Fig7 runs the sampling runs and compares EPI confidence to CPI's.
func Fig7(ctx context.Context, ec *Context, cfg uarch.Config) (*Fig7Result, error) {
	res := &Fig7Result{Config: cfg.Name, NInit: ec.Scale.NInit}
	var errSum, epiCISum, cpiCISum float64
	for _, bench := range ec.Scale.BenchNames() {
		ref, err := ec.Reference(ctx, bench, cfg)
		if err != nil {
			return nil, err
		}
		p, err := ec.Program(bench)
		if err != nil {
			return nil, err
		}
		plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), ec.Scale.NInit,
			smarts.FunctionalWarming, 0)
		run, err := ec.Sampler.Sample(ctx, p, cfg, plan)
		if err != nil {
			return nil, err
		}
		est := run.EPIEstimate(stats.Alpha997)
		truth := ref.TrueEPI()
		row := Fig7Row{
			Bench:     bench,
			TrueEPI:   truth,
			Est:       est,
			ActualErr: (est.Mean - truth) / truth,
		}
		errSum += abs(row.ActualErr)
		epiCISum += est.RelCI
		cpiCISum += run.CPIEstimate(stats.Alpha997).RelCI
		res.Rows = append(res.Rows, row)
	}
	res.MeanAbsErr = errSum / float64(len(res.Rows))
	if cpiCISum > 0 {
		res.MeanCIRatio = epiCISum / cpiCISum
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return res.Rows[i].Est.RelCI > res.Rows[j].Est.RelCI
	})
	return res, nil
}

// Format renders the figure as a table.
func (r *Fig7Result) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: SMARTS EPI estimation with n_init=%d (%s), worst CI first\n", r.NInit, r.Config)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\ttrue EPI(nJ)\test EPI(nJ)\tactual err\tCI(99.7%)")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%+.2f%%\t±%.2f%%\n",
			row.Bench, row.TrueEPI, row.Est.Mean, row.ActualErr*100, row.Est.RelCI*100)
	}
	tw.Flush()
	fmt.Fprintf(w, "mean |EPI error|: %.2f%%; mean EPI-CI / CPI-CI ratio: %.2f\n",
		r.MeanAbsErr*100, r.MeanCIRatio)
}
