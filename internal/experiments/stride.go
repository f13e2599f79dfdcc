package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/smarts"
	"repro/internal/uarch"
)

// ParallelSweepBiasThreshold is the documented ceiling on the worst
// per-benchmark |CPI bias| a speculative parallel sweep may add at the
// default warm-up overlap: the paper's Table 5 envelope (±2%) for
// functional warming with minimal detailed warming. The bias-vs-stride
// experiment measures the actual value; stride_test.go asserts it
// stays under this threshold, so raising sweep parallelism never
// silently degrades accuracy past what the paper already accepts for
// its warming configuration.
const ParallelSweepBiasThreshold = 0.02

// StrideCell is one grid point of the bias-vs-stride experiment: the
// worst per-benchmark bias magnitude at a segment count and overlap.
type StrideCell struct {
	Segments  int
	Overlap   int64 // as passed: 0 = default, negative = none
	WorstBias float64
	WorstOf   string // benchmark exhibiting the worst bias
}

// StrideRow is one segment count's cells across the overlap values.
type StrideRow struct {
	Segments int
	Cells    []StrideCell
}

// StrideResult reports the speculative parallel sweep's cold-start
// bias surface: for each (segment count, warm-up overlap) grid point,
// the worst per-benchmark |CPI bias| of sampled measurement against
// matched-unit ground truth (the Table 5 measurement, driven over the
// sweep-partitioning knob instead of the warming mode). Segment count
// 1 is the serial sweep — its row is the residual functional-warming
// bias every other row should be compared against.
type StrideResult struct {
	Config   string
	W        uint64
	Overlaps []int64
	Rows     []StrideRow
}

// Stride measures the bias-vs-stride grid. segments and overlaps
// default to {1, 2, 4, 8} and {negative (none), 0 (default)} when nil.
// Parallel sweeps exist only on the engine, so a Context on the serial
// loop (nil Engine) runs these measurements with one worker per core.
// Each grid point runs on a context derived from ec — its own copy of
// the engine options with the two sweep knobs set, sharing ec's program
// and reference caches — so ec is never written and may be serving
// other experiments concurrently.
func Stride(ctx context.Context, ec *Context, cfg uarch.Config, segments []int, overlaps []int64) (*StrideResult, error) {
	if segments == nil {
		segments = []int{1, 2, 4, 8}
	}
	if overlaps == nil {
		overlaps = []int64{-1, 0}
	}
	var opt engine.Options
	if ec.Engine != nil {
		opt = *ec.Engine
	}

	w := smarts.RecommendedW(cfg)
	res := &StrideResult{Config: cfg.Name, W: w, Overlaps: overlaps}
	for _, segs := range segments {
		row := StrideRow{Segments: segs}
		for _, ov := range overlaps {
			opt.SweepParallelism, opt.SweepOverlap = segs, ov
			cellCtx := ec.withEngine(opt)
			cell := StrideCell{Segments: segs, Overlap: ov}
			for _, bench := range ec.Scale.BenchNames() {
				b, err := MeasureBias(ctx, cellCtx, bench, cfg, 1000, w,
					smarts.FunctionalWarming, ec.Scale.NInit, ec.Scale.BiasPhases)
				if err != nil {
					return nil, fmt.Errorf("experiments: stride segs=%d overlap=%d: %w", segs, ov, err)
				}
				if abs(b) > cell.WorstBias {
					cell.WorstBias = abs(b)
					cell.WorstOf = bench
				}
			}
			row.Cells = append(row.Cells, cell)
			if segs == 1 {
				// The serial sweep ignores the overlap; one measurement
				// serves every column.
				for len(row.Cells) < len(overlaps) {
					c := cell
					c.Overlap = overlaps[len(row.Cells)]
					row.Cells = append(row.Cells, c)
				}
				break
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WorstAtDefaultOverlap returns the largest worst-bias over all
// parallel rows (segments > 1) at the default overlap (the 0 column),
// the quantity the documented threshold bounds. Zero when the grid has
// no such cells.
func (r *StrideResult) WorstAtDefaultOverlap() float64 {
	worst := 0.0
	for _, row := range r.Rows {
		if row.Segments <= 1 {
			continue
		}
		for _, c := range row.Cells {
			if c.Overlap == 0 && c.WorstBias > worst {
				worst = c.WorstBias
			}
		}
	}
	return worst
}

// overlapLabel renders an overlap column header.
func overlapLabel(ov int64) string {
	switch {
	case ov < 0:
		return "ov=none"
	case ov == 0:
		return fmt.Sprintf("ov=%d", int64(checkpoint.DefaultSweepOverlap))
	}
	return fmt.Sprintf("ov=%d", ov)
}

// Format renders the grid, segment counts down, overlaps across.
func (r *StrideResult) Format(w io.Writer) {
	fmt.Fprintf(w, "Bias vs stride: worst |CPI bias| of the speculative parallel sweep, functional warming W=%d (%s)\n", r.W, r.Config)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "segments")
	for _, ov := range r.Overlaps {
		fmt.Fprintf(tw, "\t%s", overlapLabel(ov))
	}
	fmt.Fprintln(tw)
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%d", row.Segments)
		for _, c := range row.Cells {
			fmt.Fprintf(tw, "\t%.2f%% (%s)", c.WorstBias*100, c.WorstOf)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
