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
//   - Finish sorts the non-partial units by stream position, never
//     keeping arrival order;
//   - a partial unit (the program ended inside it) cuts the stream at
//     its position: everything before it is kept, it and everything
//     after are dropped, as the serial loop does.
//
// Progress reported through Options.OnReplayed covers the in-order
// prefix only (stats.StreamAggregator orders it), so it too is the same
// for every arrival order.
//
// A Merger is not safe for concurrent use; callers serialize Offer.
type Merger struct {
	agg    *stats.StreamAggregator // nil without onFold
	u      uint64
	onFold func(replayed int, est stats.Estimate)
	units  []RangeUnit
	stopAt int    // units with Seq >= stopAt are dropped
	folded uint64 // in-order units reported through onFold
}

// NewMerger builds the fold for a plan with unit size u. Of opt it reads
// Alpha and OnReplayed, which it calls from Offer's goroutine each time
// the in-order prefix grows. hint sizes the unit buffer.
func NewMerger(u uint64, opt Options, hint int) *Merger {
	m := &Merger{
		u:      u,
		onFold: opt.OnReplayed,
		units:  make([]RangeUnit, 0, hint),
		stopAt: int(^uint(0) >> 1),
	}
	if m.onFold != nil {
		alpha := opt.Alpha
		if alpha == 0 {
			alpha = stats.Alpha997
		}
		m.agg = stats.NewStreamAggregator(alpha, 0, 0)
	}
	return m
}

// Offer folds one replayed unit; units may arrive in any order, each
// stream position exactly once.
func (m *Merger) Offer(ru RangeUnit) {
	if ru.Partial {
		m.stopAt = min(m.stopAt, ru.Seq)
		return
	}
	m.units = append(m.units, ru)
	if m.onFold != nil {
		m.agg.Offer(uint64(ru.Seq), stats.Obs{CPI: ru.Res.CPI, EPI: ru.Res.EPI})
		if n := m.agg.Merged(); n > m.folded {
			m.folded = n
			m.onFold(int(n), m.agg.CPIEstimate())
		}
	}
}

// deliver is Offer in the pool's delivery form: the fold never asks the
// pool to stop.
func (m *Merger) deliver(ru RangeUnit) bool {
	m.Offer(ru)
	return true
}

// Finish returns the measurement half of the run's Result: the offered
// units sorted by stream position and truncated at the partial unit,
// with their instruction and replay-time accounting (Timing.Detailed).
// The sweep half and Timing.Wall are the caller's to fill.
func (m *Merger) Finish() *Result {
	sort.Slice(m.units, func(i, j int) bool { return m.units[i].Seq < m.units[j].Seq })
	res := &Result{}
	for _, ru := range m.units {
		if ru.Seq >= m.stopAt {
			break
		}
		res.Units = append(res.Units, ru.Res)
		res.MeasuredInsts += m.u
		res.WarmingInsts += ru.Warming
		res.Timing.Detailed += ru.Elapsed
	}
	return res
}
