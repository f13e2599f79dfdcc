package bpred_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bpred"
)

// samePredTraffic drives a and b with the same n random control
// instructions through the detailed core's predict/check/update
// sequence and requires every prediction to match.
func samePredTraffic(t *testing.T, a, b *bpred.Unit, rng *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		o := randomOutcome(rng)
		pa, pb := a.Predict(o.PC, o.Op), b.Predict(o.PC, o.Op)
		if pa != pb {
			t.Fatalf("control %d: predicted %+v vs %+v", i, pa, pb)
		}
		if ma, mb := a.CheckMispredict(pa, o), b.CheckMispredict(pb, o); ma != mb {
			t.Fatalf("control %d: mispredict %v vs %v", i, ma, mb)
		}
		a.Update(o)
		b.Update(o)
	}
}

// dirtyPred trains u on random traffic, snapshots included, so the
// tables, history, BTB (tags, targets, LRU, clock), return stack,
// statistics, chain position and dirty bitmaps have all moved.
func dirtyPred(u *bpred.Unit, rng *rand.Rand) {
	for i := 0; i < 20_000; i++ {
		u.Warm(randomOutcome(rng))
		if i%5000 == 0 {
			u.Snapshot(nil)
		}
	}
}

// TestPredResetEqualsNew: a reset unit is a new unit — every field, the
// Snapshot bytes, the statistics, and the next 10k predictions.
func TestPredResetEqualsNew(t *testing.T) {
	u := bpred.New(smallCfg())
	dirtyPred(u, rand.New(rand.NewSource(31)))
	u.Reset()
	fresh := bpred.New(smallCfg())
	if !reflect.DeepEqual(u, fresh) {
		t.Fatal("reset unit differs from a new one")
	}
	if u.Stats != fresh.Stats || u.Seq() != fresh.Seq() {
		t.Fatalf("stats %+v seq %d, new unit %+v seq %d", u.Stats, u.Seq(), fresh.Stats, fresh.Seq())
	}
	if !reflect.DeepEqual(u.Snapshot(nil), fresh.Snapshot(nil)) {
		t.Fatal("reset unit snapshots differently from a new one")
	}
	samePredTraffic(t, u, fresh, rand.New(rand.NewSource(32)), 10_000)
	if !reflect.DeepEqual(u, fresh) {
		t.Fatal("reset unit diverged from a new one under identical traffic")
	}
}

// TestPredFlushIsResetKeepingStats pins how Flush differs from Reset:
// the trained state — BTB tags, targets and LRU clock and stale return
// stack entries included — is exactly a new unit's, so the Snapshot
// bytes are too; the statistics and the chain position stay.
func TestPredFlushIsResetKeepingStats(t *testing.T) {
	u := bpred.New(smallCfg())
	dirtyPred(u, rand.New(rand.NewSource(33)))
	stats, seq := u.Stats, u.Seq()
	u.Flush()
	if u.Stats != stats || u.Seq() != seq {
		t.Fatalf("Flush moved stats or chain: %+v/%d, want %+v/%d", u.Stats, u.Seq(), stats, seq)
	}
	fresh := bpred.New(smallCfg())
	if !reflect.DeepEqual(u.Snapshot(nil), fresh.Snapshot(nil)) {
		t.Fatal("flushed unit snapshots differently from a new one (stale BTB or RAS entries)")
	}
	samePredTraffic(t, u, fresh, rand.New(rand.NewSource(34)), 10_000)
	if !reflect.DeepEqual(u.Snapshot(nil), fresh.Snapshot(nil)) {
		t.Fatal("flushed unit diverged from a new one under identical traffic")
	}
}
