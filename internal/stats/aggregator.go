package stats

// Obs is one sampling unit's pair of observations.
type Obs struct {
	CPI, EPI float64
}

// StreamAggregator merges per-unit observations that arrive in arbitrary
// order (from parallel workers) into deterministic stream-order Welford
// accumulation.
//
// Determinism is the point: floating-point accumulation is not
// associative, so merging results in completion order would make the
// estimate depend on worker scheduling. The aggregator instead buffers
// out-of-order arrivals and folds each observation into the Samples only
// when its stream-order predecessor has been folded, so the final mean,
// CV, and confidence interval are bit-identical for any worker count —
// including one.
type StreamAggregator struct {
	cpi, epi Sample
	next     uint64
	pending  map[uint64]Obs
	alpha    float64
}

// NewStreamAggregator builds an aggregator whose estimates are at
// confidence 1-alpha.
//
// The last two parameters are unused. They remain only because the
// benchmark module (benchmark/layers.go) still passes them, and go with
// that module's next change.
func NewStreamAggregator(alpha float64, _ float64, _ uint64) *StreamAggregator {
	return &StreamAggregator{pending: make(map[uint64]Obs), alpha: alpha}
}

// Offer delivers the observation for stream position seq (0-based). It
// may arrive in any order; each position must be offered exactly once.
func (a *StreamAggregator) Offer(seq uint64, o Obs) {
	if seq != a.next {
		a.pending[seq] = o
		return
	}
	a.fold(o)
	for {
		nxt, ok := a.pending[a.next]
		if !ok {
			break
		}
		delete(a.pending, a.next)
		a.fold(nxt)
	}
}

func (a *StreamAggregator) fold(o Obs) {
	a.cpi.Add(o.CPI)
	a.epi.Add(o.EPI)
	a.next++
}

// Merged returns the number of observations folded into the estimate.
func (a *StreamAggregator) Merged() uint64 { return a.cpi.N() }

// CPISample and EPISample return the folded samples.
func (a *StreamAggregator) CPISample() *Sample { return &a.cpi }

// EPISample returns the folded EPI sample.
func (a *StreamAggregator) EPISample() *Sample { return &a.epi }

// CPIEstimate returns the CPI estimate at the aggregator's confidence.
func (a *StreamAggregator) CPIEstimate() Estimate { return a.cpi.Estimate(a.alpha) }
