package experiments

import (
	"context"

	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/smarts"
	"repro/internal/uarch"
)

// AblationRow reports one benchmark's bias under each warming variant.
type AblationRow struct {
	Bench string
	// Bias per variant, aligned with AblationResult.Variants.
	Bias []float64
}

// AblationResult is an extension study beyond the paper's tables: which
// warmed structure actually carries functional warming's benefit? For
// each benchmark it measures the matched-unit CPI bias with W fixed at
// the recommended value and functional warming restricted to subsets of
// {I-cache, D-side hierarchy, predictor}. The expectation (implicit in
// the paper's Section 4.5 attribution of residual bias to caches and
// predictor) is that memory-bound workloads need the D-side warmed,
// branchy workloads need the predictor, and the full combination
// dominates everything.
type AblationResult struct {
	Config   string
	W        uint64
	Variants []string
	Rows     []AblationRow
}

// ablationVariants enumerates the warming subsets in presentation order.
var ablationVariants = []struct {
	Name string
	Comp uarch.WarmComponents
}{
	{"none", uarch.WarmComponents{}},
	{"icache", uarch.WarmComponents{ICache: true}},
	{"dcache", uarch.WarmComponents{DCache: true}},
	{"bpred", uarch.WarmComponents{Predictor: true}},
	{"all", uarch.AllComponents},
}

// AblationWarming measures the component ablation for the given
// benchmarks (nil = a representative subset spanning memory-bound,
// branchy, and compute-bound behaviour).
func AblationWarming(ctx context.Context, ec *Context, cfg uarch.Config, benches []string) (*AblationResult, error) {
	if benches == nil {
		benches = []string{"mcfx", "parserx", "craftyx", "gccx", "eonx", "swimx"}
	}
	res := &AblationResult{Config: cfg.Name, W: smarts.RecommendedW(cfg)}
	for _, v := range ablationVariants {
		res.Variants = append(res.Variants, v.Name)
	}

	// Wide gaps so stale state has time to rot between units, as in the
	// Table 4 setup.
	n := ec.Scale.NInit / 8
	if n < 10 {
		n = 10
	}
	for _, bench := range benches {
		row := AblationRow{Bench: bench}
		for _, v := range ablationVariants {
			comp := v.Comp
			b, err := measureBias(ctx, ec, bench, cfg, 1000, res.W, smarts.FunctionalWarming, &comp,
				n, ec.Scale.BiasPhases)
			if err != nil {
				return nil, err
			}
			row.Bias = append(row.Bias, b)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the ablation table.
func (r *AblationResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Ablation: CPI bias by warmed component (functional warming, W=%d, %s)\n", r.W, r.Config)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "bench")
	for _, v := range r.Variants {
		fmt.Fprintf(tw, "\t%s", v)
	}
	fmt.Fprintln(tw)
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s", row.Bench)
		for _, b := range row.Bias {
			fmt.Fprintf(tw, "\t%+.2f%%", b*100)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
