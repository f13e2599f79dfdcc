package engine

import (
	"sort"

	"repro/internal/stats"
)

// Merger is the one stream-order fold behind every way of running a
// plan: engine.Run offers it the pool's units, the distributed
// coordinator offers it shard-streamed units as they arrive from the
// fleet and journaled units at recovery. It alone knows the rules that
// make the estimate a pure function of the sample sequence — identical
// for any worker count, shard split, arrival interleaving or retry
// history:
//
//   - every non-partial unit is folded by its stream position
//     (stats.StreamAggregator), never by arrival order;
//   - a partial unit (the program ended inside it) cuts the stream at
//     its position: everything before it is kept, it and everything
//     after are dropped, as the serial loop does;
//   - a met confidence target fixes the cutoff at the aggregator's
//     in-order prefix length (DoneAt), so the kept prefix is complete
//     by construction.
//
// A Merger is not safe for concurrent use; callers serialize Offer.
type Merger struct {
	agg    *stats.StreamAggregator
	u      uint64
	onFold func(replayed int, est stats.Estimate)
	units  []RangeUnit
	stopAt int // units with Seq >= stopAt are dropped
	early  bool
	folded uint64 // in-order units reported through onFold
}

// NewMerger builds the fold for a plan with unit size u. Of opt it reads
// Alpha, TargetEps and MinUnits (the early-termination rule) and
// OnReplayed, which it calls from Offer's goroutine each time the
// in-order prefix grows. hint sizes the unit buffer.
func NewMerger(u uint64, opt Options, hint int) *Merger {
	alpha := opt.Alpha
	if alpha == 0 {
		alpha = stats.Alpha997
	}
	return &Merger{
		agg:    stats.NewStreamAggregator(alpha, opt.TargetEps, opt.MinUnits),
		u:      u,
		onFold: opt.OnReplayed,
		units:  make([]RangeUnit, 0, hint),
		stopAt: int(^uint(0) >> 1),
	}
}

// Offer folds one replayed unit; units may arrive in any order, each
// stream position exactly once. It reports whether early termination
// has fixed the outcome — further units are surplus and the caller can
// stop producing them.
func (m *Merger) Offer(ru RangeUnit) (stop bool) {
	if ru.Partial {
		if ru.Seq < m.stopAt {
			m.stopAt = ru.Seq
		}
		return m.early
	}
	m.units = append(m.units, ru)
	hitTarget := m.agg.Offer(uint64(ru.Seq), stats.Obs{CPI: ru.Res.CPI, EPI: ru.Res.EPI})
	if m.onFold != nil {
		if n := m.agg.Merged(); n > m.folded {
			m.folded = n
			m.onFold(int(n), m.agg.CPIEstimate())
		}
	}
	if hitTarget {
		if cut := int(m.agg.DoneAt()); cut < m.stopAt {
			m.stopAt = cut
			m.early = true
		}
	}
	return m.early
}

// Finish returns the measurement half of the run's Result: the offered
// units sorted by stream position and truncated at the cutoff, with
// their instruction and replay-time accounting. The sweep half and
// WallTime are the caller's to fill.
func (m *Merger) Finish() *Result {
	sort.Slice(m.units, func(i, j int) bool { return m.units[i].Seq < m.units[j].Seq })
	res := &Result{EarlyStopped: m.early}
	for _, ru := range m.units {
		if ru.Seq >= m.stopAt {
			break
		}
		res.Units = append(res.Units, ru.Res)
		res.MeasuredInsts += m.u
		res.WarmingInsts += ru.Warming
		res.DetailedTime += ru.Elapsed
	}
	return res
}
