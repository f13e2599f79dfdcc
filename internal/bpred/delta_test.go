package bpred_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
)

func smallCfg() bpred.Config {
	return bpred.Config{
		TableEntries: 256,
		HistoryBits:  8,
		BTBSets:      32,
		BTBWays:      2,
		RASEntries:   4,
	}
}

// randomOutcome produces one plausible control-flow outcome for warm
// traffic: conditional branches, direct jumps/calls, returns, and
// indirect jumps all occur, exercising every table the delta covers.
func randomOutcome(rng *rand.Rand) bpred.Outcome {
	pc := uint64(rng.Intn(4096))
	tgt := uint64(rng.Intn(4096))
	switch rng.Intn(5) {
	case 0, 1:
		return bpred.Outcome{Op: isa.OpBeq, PC: pc, Taken: rng.Intn(2) == 0, Target: tgt, NextPC: pc + 1}
	case 2:
		return bpred.Outcome{Op: isa.OpCall, PC: pc, Taken: true, Target: tgt, NextPC: pc + 1}
	case 3:
		return bpred.Outcome{Op: isa.OpRet, PC: pc, Taken: true, Target: tgt, NextPC: pc + 1}
	}
	return bpred.Outcome{Op: isa.OpJmp, PC: pc, Taken: true, Target: tgt, NextPC: pc + 1}
}

// TestPredDeltaMatchesSnapshot is the predictor's delta correctness
// property: after randomized warm traffic (full Warm passes, so
// Predict-side BTB LRU updates are covered too), applying a chain of
// Deltas over the previous snapshot reproduces a fresh full Snapshot
// exactly.
func TestPredDeltaMatchesSnapshot(t *testing.T) {
	u := bpred.New(smallCfg())
	rng := rand.New(rand.NewSource(23))
	// The keyframe snapshot resets dirty tracking and starts the chain.
	tracked := u.Snapshot()
	for round := 0; round < 60; round++ {
		for i := 0; i < rng.Intn(400); i++ {
			u.Warm(randomOutcome(rng))
		}
		if round == 30 {
			u.Flush() // must mark everything
		}
		d, err := u.Delta(u.Seq())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := tracked.Apply(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if full := u.Snapshot(); !reflect.DeepEqual(tracked, full) {
			t.Fatalf("round %d: delta-tracked predictor state diverged", round)
		}
	}
	// Chain discipline: stale or pre-snapshot baselines fail.
	if _, err := u.Delta(u.Seq() - 1); err == nil {
		t.Fatal("stale baseline must fail")
	}
	if _, err := bpred.New(smallCfg()).Delta(0); err == nil {
		t.Fatal("delta before first snapshot must fail")
	}
}

// TestPredDeltaSlicesExact pins the delta's allocation to its payload:
// every slice is sized exactly (cap == len), not grown block by block.
func TestPredDeltaSlicesExact(t *testing.T) {
	u := bpred.New(smallCfg())
	rng := rand.New(rand.NewSource(41))
	u.Snapshot()
	for round := 0; round < 20; round++ {
		for i := 0; i < rng.Intn(200); i++ {
			u.Warm(randomOutcome(rng))
		}
		if round == 10 {
			u.Flush()
		}
		d, err := u.Delta(u.Seq())
		if err != nil {
			t.Fatal(err)
		}
		dv := reflect.ValueOf(d).Elem()
		for i := 0; i < dv.NumField(); i++ {
			if f := dv.Field(i); f.Kind() == reflect.Slice && f.Cap() != f.Len() {
				t.Fatalf("round %d: Delta.%s has len %d, cap %d", round, dv.Type().Field(i).Name, f.Len(), f.Cap())
			}
		}
	}
}

// TestPredDeltaApplyRejectsCorrupt verifies geometry and segment
// validation on Apply.
func TestPredDeltaApplyRejectsCorrupt(t *testing.T) {
	u := bpred.New(smallCfg())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		u.Warm(randomOutcome(rng))
	}
	s := u.Snapshot()
	mk := func() *bpred.Delta {
		v := bpred.New(smallCfg())
		r2 := rand.New(rand.NewSource(3))
		v.Snapshot()
		for i := 0; i < 100; i++ {
			v.Warm(randomOutcome(r2))
		}
		d, err := v.Delta(v.Seq())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for name, corrupt := range map[string]func(*bpred.Delta){
		"geometry":     func(d *bpred.Delta) { d.N = 7 },
		"btb-geometry": func(d *bpred.Delta) { d.BTBN = 1 << 20 },
		"tbl-grain":    func(d *bpred.Delta) { d.TblGrain = 40 },
		"ras":          func(d *bpred.Delta) { d.RAS = d.RAS[:1] },
		"ras-top":      func(d *bpred.Delta) { d.RASTop = 99 },
		"ras-top-neg":  func(d *bpred.Delta) { d.RASTop = -1 },
		"tbl-range":    func(d *bpred.Delta) { d.TblBlocks[0] = 1 << 30 },
		"btb-segment":  func(d *bpred.Delta) { d.BTBTags = d.BTBTags[:0] },
	} {
		d := mk()
		corrupt(d)
		if err := s.Clone().Apply(d); err == nil {
			t.Errorf("%s: corrupt delta applied without error", name)
		}
	}
}

// TestPredDirtyTrackingZeroAllocs pins the Update/Warm path with dirty
// marking to zero heap allocations.
func TestPredDirtyTrackingZeroAllocs(t *testing.T) {
	u := bpred.New(smallCfg())
	o := bpred.Outcome{Op: isa.OpBeq, PC: 100, Taken: true, Target: 50, NextPC: 101}
	u.Warm(o)
	if allocs := testing.AllocsPerRun(1000, func() { u.Warm(o) }); allocs != 0 {
		t.Fatalf("Warm with dirty tracking allocates %.1f objects/op; want 0", allocs)
	}
}
