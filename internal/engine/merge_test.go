package engine_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// synthUnits builds a synthetic replay stream of n units with randomized
// observations; partialAt (when >= 0) marks that position as the
// program-ended-inside-it partial unit.
func synthUnits(rng *rand.Rand, n, partialAt int) []engine.RangeUnit {
	units := make([]engine.RangeUnit, n)
	for i := range units {
		if i == partialAt {
			units[i] = engine.RangeUnit{Seq: i, Partial: true}
			continue
		}
		cpi := 0.8 + rng.Float64()
		units[i] = engine.RangeUnit{
			Seq: i,
			Res: engine.UnitResult{
				Index:    uint64(i) * 7,
				Cycles:   uint64(1000 * cpi),
				EnergyNJ: 500 + rng.Float64()*100,
				CPI:      cpi,
				EPI:      0.5 + rng.Float64()*0.1,
			},
			Warming: uint64(rng.Intn(5000)),
			Elapsed: time.Duration(rng.Intn(1_000_000)),
		}
	}
	return units
}

// TestMergeOrderInvariance is the Merger's property test, and with it
// the fleet's shard-merge property (the coordinator offers shard
// streams to this type): splitting a replay stream into K contiguous
// ranges and offering the units in any interleaved arrival order — or
// in a uniformly random order, as out-of-order completions could —
// reproduces the in-order fold byte for byte, including the
// partial-unit truncation and what OnReplayed reports for each prefix
// length.
func TestMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const u = 1000

	type fold struct {
		n   int
		est stats.Estimate
	}
	merge := func(n int, order []engine.RangeUnit) (*engine.Result, []fold) {
		var folds []fold
		opt := engine.Options{OnReplayed: func(replayed int, est stats.Estimate) { folds = append(folds, fold{replayed, est}) }}
		m := engine.NewMerger(u, opt, n)
		for _, ru := range order {
			m.Offer(ru)
		}
		return m.Finish(), folds
	}

	for trial := 0; trial < 300; trial++ {
		n := 20 + rng.Intn(120)
		partialAt := -1
		if rng.Intn(3) == 0 {
			partialAt = rng.Intn(n)
		}
		units := synthUnits(rng, n, partialAt)

		// Reference: the whole stream offered strictly in stream order,
		// as the local pool delivers it.
		want, wantFolds := merge(n, units)

		// Sharded: K contiguous ranges, units arriving in a random
		// interleaving that preserves only per-shard order (exactly what
		// concurrent shard streams deliver).
		shards := 1 + rng.Intn(8)
		bounds := make([]int, shards+1)
		for i := range bounds {
			bounds[i] = i * n / shards
		}
		next := append([]int(nil), bounds[:shards]...)
		var sharded []engine.RangeUnit
		for len(sharded) < n {
			s := rng.Intn(shards)
			if next[s] < bounds[s+1] {
				sharded = append(sharded, units[next[s]])
				next[s]++
			}
		}
		shuffled := append([]engine.RangeUnit(nil), units...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		for name, order := range map[string][]engine.RangeUnit{"sharded": sharded, "shuffled": shuffled} {
			got, gotFolds := merge(n, order)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s (n=%d shards=%d partial=%d): merge diverged:\n got %+v\nwant %+v",
					trial, name, n, shards, partialAt, got, want)
			}
			// A jump of the in-order prefix is reported once, so arrival
			// order changes how often OnReplayed fires — never what it
			// reports for a given prefix length.
			for _, f := range gotFolds {
				if f.n < 1 || f.n > len(wantFolds) || !reflect.DeepEqual(f, wantFolds[f.n-1]) {
					t.Fatalf("trial %d %s: OnReplayed(%d) diverged from the in-order fold", trial, name, f.n)
				}
			}
		}
	}
}
