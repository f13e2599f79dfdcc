package simpoint

import (
	"fmt"
	"sort"

	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// Point is one selected simulation point.
type Point struct {
	// Interval is the interval index in the profile.
	Interval int
	// Weight is the fraction of the stream this point represents.
	Weight float64
}

// Selection is the set of simulation points for a benchmark.
type Selection struct {
	IntervalLen uint64
	Points      []Point
	K           int
}

// Select picks, for each cluster, the interval nearest its centroid, and
// weights it by the cluster's share of the stream.
func Select(prof *Profile, cl *Clustering) Selection {
	n := len(prof.Vectors)
	best := make([]int, cl.K)
	bestD := make([]float64, cl.K)
	for c := range best {
		best[c] = -1
	}
	for i, v := range prof.Vectors {
		c := cl.Assign[i]
		d := sqDist(v, cl.Centroids[c])
		if best[c] < 0 || d < bestD[c] {
			best[c], bestD[c] = i, d
		}
	}
	sel := Selection{IntervalLen: prof.IntervalLen, K: cl.K}
	for c := 0; c < cl.K; c++ {
		if best[c] < 0 {
			continue
		}
		sel.Points = append(sel.Points, Point{
			Interval: best[c],
			Weight:   float64(cl.Sizes[c]) / float64(n),
		})
	}
	sort.Slice(sel.Points, func(i, j int) bool {
		return sel.Points[i].Interval < sel.Points[j].Interval
	})
	return sel
}

// Result is a SimPoint CPI estimate.
type Result struct {
	// CPI is the weighted estimate.
	CPI float64
	// EPI is the weighted energy-per-instruction estimate.
	EPI float64
	// SimulatedInsts counts detailed-simulated instructions.
	SimulatedInsts uint64
	// FastFwdInsts counts functionally simulated instructions.
	FastFwdInsts uint64
	// PerPoint records the per-point CPIs in interval order.
	PerPoint []float64
}

// Estimate runs the detailed simulations of the selected points and
// returns the weighted CPI/EPI. Following the original methodology, each
// point is reached by pure functional fast-forwarding and simulated with
// cold microarchitectural state (no warming) — large intervals amortize
// the cold-start transient, which is SimPoint's stated justification for
// not needing warming.
func Estimate(p *program.Program, cfg uarch.Config, sel Selection) (*Result, error) {
	return estimate(p, cfg, sel, false)
}

// EstimateWarmed is Estimate with SMARTS-style functional warming during
// fast-forwarding. It is not part of the published SimPoint methodology;
// it isolates SimPoint's *representativeness* error (cluster instances
// differing in behaviour, the failure mode the SMARTS paper's Figure 8
// discussion attributes gcc-2's -14.3% to) from the cold-start error
// that dominates at reduced interval sizes.
func EstimateWarmed(p *program.Program, cfg uarch.Config, sel Selection) (*Result, error) {
	return estimate(p, cfg, sel, true)
}

func estimate(p *program.Program, cfg uarch.Config, sel Selection, warm bool) (*Result, error) {
	if len(sel.Points) == 0 {
		return nil, fmt.Errorf("simpoint: empty selection")
	}
	cpu := functional.New(p)
	machine := uarch.NewMachine(cfg)
	core := uarch.NewCore(machine)
	src := &uarch.Source{CPU: cpu}
	warmer := uarch.NewWarmer(machine, cfg)
	res := &Result{}

	var weightTotal float64
	for _, pt := range sel.Points {
		start := uint64(pt.Interval) * sel.IntervalLen
		if start < cpu.Count {
			return nil, fmt.Errorf("simpoint: points out of order at interval %d", pt.Interval)
		}
		if ff := start - cpu.Count; ff > 0 {
			var err error
			if warm {
				err = warmer.ForwardBatch(cpu, ff)
			} else {
				_, err = cpu.Run(ff)
			}
			if err != nil {
				return nil, fmt.Errorf("simpoint: fast-forward: %w", err)
			}
			res.FastFwdInsts += ff
		}
		if !warm {
			// Cold state for every point: flush and rebuild from nothing.
			machine.FlushWarmState()
		}
		core.ResetPipeline()
		stats, err := core.Run(src, sel.IntervalLen, nil)
		if err != nil {
			return nil, fmt.Errorf("simpoint: detailed interval %d: %w", pt.Interval, err)
		}
		if stats.Insts == 0 {
			break
		}
		res.SimulatedInsts += stats.Insts
		cpi := float64(stats.Cycles) / float64(stats.Insts)
		epi := stats.EnergyNJ / float64(stats.Insts)
		res.CPI += pt.Weight * cpi
		res.EPI += pt.Weight * epi
		res.PerPoint = append(res.PerPoint, cpi)
		weightTotal += pt.Weight
	}
	if weightTotal > 0 {
		res.CPI /= weightTotal
		res.EPI /= weightTotal
	}
	return res, nil
}

// Run executes the complete SimPoint pipeline: profile, cluster, select,
// and estimate. maxK bounds the clustering search (the original tool
// defaults to 10).
func Run(p *program.Program, cfg uarch.Config, intervalLen uint64, maxK int, seed int64) (*Result, Selection, error) {
	prof, err := ProfileProgram(p, intervalLen, 15, seed)
	if err != nil {
		return nil, Selection{}, err
	}
	cl := ChooseK(prof.Vectors, maxK, seed, 0.9)
	sel := Select(prof, cl)
	res, err := Estimate(p, cfg, sel)
	return res, sel, err
}
