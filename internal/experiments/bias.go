package experiments

import (
	"context"
	"fmt"

	"repro/internal/smarts"
	"repro/internal/uarch"
)

// MeasureBias estimates the warming-induced bias of a SMARTS
// configuration: the relative CPI error of the sampled measurement
// against the reference truth *on the same sampling units*, averaged
// over `phases` evenly spaced systematic phase offsets j (the paper's
// Section 4.3 approximation of true bias with 5 of the k phases).
//
// Comparing matched units cancels unit-selection variance exactly, so
// the result isolates microarchitectural-state error — the quantity
// Tables 4 and 5 of the paper report — even at modest n. (The paper
// achieves the same isolation with enormous n; at reduced scale the
// matched-unit form is the statistically equivalent measurement.)
func MeasureBias(ctx context.Context, ec *Context, bench string, cfg uarch.Config, u, w uint64,
	mode smarts.WarmingMode, n uint64, phases int) (float64, error) {
	return measureBias(ctx, ec, bench, cfg, u, w, mode, nil, n, phases)
}

// measureBias is MeasureBias with an optional restriction of functional
// warming to a subset of structures (the component ablation).
func measureBias(ctx context.Context, ec *Context, bench string, cfg uarch.Config, u, w uint64,
	mode smarts.WarmingMode, comp *uarch.WarmComponents, n uint64, phases int) (float64, error) {

	ref, err := ec.Reference(ctx, bench, cfg)
	if err != nil {
		return 0, err
	}
	p, err := ec.Program(bench)
	if err != nil {
		return 0, err
	}
	trueUnits, err := ref.UnitCPIs(u)
	if err != nil {
		return 0, err
	}

	base := smarts.PlanForN(p.Length, u, w, n, mode, 0)
	base.Components = comp
	if phases < 1 {
		phases = 1
	}
	if uint64(phases) > base.K {
		phases = int(base.K)
	}
	runs, err := ec.samplePhases(ctx, p, cfg, base, phases)
	if err != nil {
		return 0, fmt.Errorf("experiments: bias runs %s: %w", bench, err)
	}
	var total float64
	for _, res := range runs {
		var measured, truth float64
		for _, unit := range res.Units {
			if unit.Index >= uint64(len(trueUnits)) {
				continue
			}
			measured += unit.CPI
			truth += trueUnits[unit.Index]
		}
		if truth == 0 {
			return 0, fmt.Errorf("experiments: bias run %s j=%d measured no comparable units", bench, res.Plan.J)
		}
		total += (measured - truth) / truth
	}
	return total / float64(phases), nil
}
