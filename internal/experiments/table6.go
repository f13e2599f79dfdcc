package experiments

import (
	"context"

	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/smarts"
	"repro/internal/uarch"
)

// Table6Row compares simulation runtimes for one benchmark.
type Table6Row struct {
	Bench      string
	Detailed   time.Duration // full-stream detailed (sim-outorder analogue)
	Functional time.Duration // full-stream functional (sim-fast analogue)
	SMARTS     time.Duration // sampling run with functional warming
	Speedup    float64       // Detailed / SMARTS
	// SMARTSvsFunctional is the SMARTS-to-functional slowdown (the paper
	// reports SMARTS at ~50% of functional-only speed).
	SMARTSvsFunctional float64
}

// Table6Result reproduces Table 6: measured wall-clock runtimes of
// detailed, functional, and SMARTS simulation, plus the derived
// speedups. The claims to reproduce: SMARTS runs orders of magnitude
// faster than full detailed simulation (paper: average 35x on 8-way) and
// at roughly half the speed of pure functional simulation.
type Table6Result struct {
	Config     string
	Rows       []Table6Row // sorted by Detailed descending, as the paper
	AvgSpeedup float64
	// ModelSpeedup is the speedup the Section 3.4 analytic model
	// predicts with the paper's constants (S_D=1/60, S_FW=0.55) at this
	// scale's sampling parameters — the scale-independent comparison.
	ModelSpeedup float64
}

// Table6 measures runtimes for every benchmark of the scale.
//
// The SMARTS run uses a dedicated n sized so the detailed fraction
// n(U+W)/N stays at a few percent — the regime the paper operates in
// (at full SPEC2K scale n=10,000 detail-simulates only ~0.03% of the
// stream). Reusing the estimation n at reduced benchmark length would
// detail-simulate most of the stream and measure nothing but the
// detailed simulator.
func Table6(ctx context.Context, ec *Context, cfg uarch.Config) (*Table6Result, error) {
	res := &Table6Result{Config: cfg.Name}
	w := smarts.RecommendedW(cfg)
	n := ec.Scale.BenchLen / (1000 + w) / 25 // ~4% detailed fraction
	if n < 10 {
		n = 10
	}
	var speedupSum float64
	for _, bench := range ec.Scale.BenchNames() {
		p, err := ec.Program(bench)
		if err != nil {
			return nil, err
		}
		ref, err := ec.Reference(ctx, bench, cfg) // cached detailed run
		if err != nil {
			return nil, err
		}
		fnTime, _, err := smarts.FunctionalRunTime(p)
		if err != nil {
			return nil, err
		}
		plan := smarts.PlanForN(p.Length, 1000, w, n, smarts.FunctionalWarming, 0)
		start := time.Now()
		if _, err := ec.Sampler.Sample(ctx, p, cfg, plan); err != nil {
			return nil, err
		}
		smartsTime := time.Since(start)

		row := Table6Row{
			Bench:      bench,
			Detailed:   ref.DetailedTime,
			Functional: fnTime,
			SMARTS:     smartsTime,
		}
		if smartsTime > 0 {
			row.Speedup = float64(ref.DetailedTime) / float64(smartsTime)
			row.SMARTSvsFunctional = float64(fnTime) / float64(smartsTime)
		}
		speedupSum += row.Speedup
		res.Rows = append(res.Rows, row)
	}
	res.AvgSpeedup = speedupSum / float64(len(res.Rows))
	sort.Slice(res.Rows, func(i, j int) bool {
		return res.Rows[i].Detailed > res.Rows[j].Detailed
	})

	// Analytic model with the paper's constants.
	detFrac := float64(n) * float64(1000+w) / float64(ec.Scale.BenchLen)
	if detFrac > 1 {
		detFrac = 1
	}
	sd := 1.0 / 60
	rate := 0.55*(1-detFrac) + sd*detFrac
	res.ModelSpeedup = rate / sd
	return res, nil
}

// Format renders the runtimes.
func (r *Table6Result) Format(w io.Writer) {
	fmt.Fprintf(w, "Table 6: measured runtimes (%s)\n", r.Config)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "bench\tdetailed\tfunctional\tSMARTS\tspeedup\tfunc/SMARTS")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%v\t%v\t%v\t%.1fx\t%.2f\n",
			row.Bench, row.Detailed.Round(time.Millisecond),
			row.Functional.Round(time.Millisecond),
			row.SMARTS.Round(time.Millisecond),
			row.Speedup, row.SMARTSvsFunctional)
	}
	tw.Flush()
	fmt.Fprintf(w, "average speedup: %.1fx (analytic model with paper constants: %.1fx)\n",
		r.AvgSpeedup, r.ModelSpeedup)
}
