package uarch_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/uarch"
)

// warmComponentSets is the full selection and each single component.
var warmComponentSets = []struct {
	name string
	c    uarch.WarmComponents
}{
	{"all", uarch.AllComponents},
	{"icache", uarch.WarmComponents{ICache: true}},
	{"dcache", uarch.WarmComponents{DCache: true}},
	{"pred", uarch.WarmComponents{Predictor: true}},
}

// TestWarmFromWarmRecordsExact: warming one machine from RunWarm's
// records and another from every instruction's (ForwardBatch, over
// RunDyn) leaves the two in the same state at every cut — cuts at
// random points, as a sweep's launch points fall, with ring-full stops
// between them: the same snapshot, the same statistics per structure
// and the same fetch-dedup block. For every suite program, both
// configurations, all components and each one alone.
func TestWarmFromWarmRecordsExact(t *testing.T) {
	length := uint64(100_000)
	if testing.Short() {
		length = 30_000
	}
	cfgs := []struct {
		name string
		cfg  uarch.Config
	}{{"8way", uarch.Config8Way()}, {"16way", uarch.Config16Way()}}
	for i, spec := range program.Suite() {
		prog := program.MustGenerate(spec, length)
		for _, c := range cfgs {
			for _, comp := range warmComponentSets {
				t.Run(fmt.Sprintf("%s/%s/%s", spec.Name, c.name, comp.name), func(t *testing.T) {
					warmBothWays(t, prog, c.cfg, comp.c, int64(i))
				})
			}
		}
	}
}

func warmBothWays(t *testing.T, prog *program.Program, cfg uarch.Config, comp uarch.WarmComponents, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	mAll, mWarm := uarch.NewMachine(cfg), uarch.NewMachine(cfg)
	wAll, wWarm := uarch.NewWarmer(mAll, cfg), uarch.NewWarmer(mWarm, cfg)
	wAll.Components, wWarm.Components = comp, comp
	cpuAll, cpuWarm := functional.New(prog), functional.New(prog)
	ring := make([]functional.DynRec, 512)
	for cut := 0; !cpuAll.Halted; cut++ {
		gap := uint64(1 + rng.Intn(8000))
		if err := wAll.ForwardBatch(cpuAll, gap); err != nil {
			t.Fatal(err)
		}
		for left := gap; left > 0 && !cpuWarm.Halted; {
			recs, insts, err := cpuWarm.RunWarm(ring, left, cfg.IL1.BlockBits)
			if err != nil {
				t.Fatal(err)
			}
			wWarm.Warm(ring[:recs])
			left -= insts
		}
		if cpuAll.Count != cpuWarm.Count {
			t.Fatalf("cut %d: at count %d and %d", cut, cpuAll.Count, cpuWarm.Count)
		}
		got, want := wWarm.Snapshot(nil), wAll.Snapshot(nil)
		if !sameWarmState(got, want) {
			t.Fatalf("cut %d at count %d: warm state differs", cut, cpuAll.Count)
		}
		hw, ha := mWarm.Hier, mAll.Hier
		if hw.IL1.Stats != ha.IL1.Stats || hw.DL1.Stats != ha.DL1.Stats || hw.L2.Stats != ha.L2.Stats ||
			hw.ITLB.Stats() != ha.ITLB.Stats() || hw.DTLB.Stats() != ha.DTLB.Stats() || mWarm.Pred.Stats != mAll.Pred.Stats {
			t.Fatalf("cut %d at count %d: statistics differ: IL1 %+v/%+v DL1 %+v/%+v L2 %+v/%+v predictor %+v/%+v",
				cut, cpuAll.Count, hw.IL1.Stats, ha.IL1.Stats, hw.DL1.Stats, ha.DL1.Stats,
				hw.L2.Stats, ha.L2.Stats, mWarm.Pred.Stats, mAll.Pred.Stats)
		}
		gb, gok := wWarm.FetchBlock()
		wb, wok := wAll.FetchBlock()
		if gb != wb || gok != wok {
			t.Fatalf("cut %d at count %d: fetch block %d,%v, want %d,%v", cut, cpuAll.Count, gb, gok, wb, wok)
		}
	}
	if !cpuWarm.Halted || cpuWarm.Count != prog.Length {
		t.Fatalf("ended at count %d halted %v, want the halt at %d", cpuWarm.Count, cpuWarm.Halted, prog.Length)
	}
}

// sameWarmState compares two warm snapshots array by array (typed
// comparisons: reflect.DeepEqual is some twenty times slower under the
// race detector).
func sameWarmState(a, b *uarch.WarmSnapshot) bool {
	// Every field below is compared; a field added to either state type
	// must be added here.
	if reflect.TypeFor[cache.State]().NumField() != 5 || reflect.TypeFor[bpred.State]().NumField() != 11 {
		panic("cache.State or bpred.State changed: extend sameWarmState")
	}
	sameCache := func(x, y *cache.State) bool {
		return slices.Equal(x.Tags, y.Tags) && slices.Equal(x.Valid, y.Valid) &&
			slices.Equal(x.Dirty, y.Dirty) && slices.Equal(x.LastUsed, y.LastUsed) && x.Stamp == y.Stamp
	}
	ha, hb := a.Hier, b.Hier
	pa, pb := a.Pred, b.Pred
	return sameCache(ha.IL1, hb.IL1) && sameCache(ha.DL1, hb.DL1) && sameCache(ha.L2, hb.L2) &&
		sameCache(ha.ITLB, hb.ITLB) && sameCache(ha.DTLB, hb.DTLB) &&
		slices.Equal(pa.Bimodal, pb.Bimodal) && slices.Equal(pa.Gshare, pb.Gshare) &&
		slices.Equal(pa.Chooser, pb.Chooser) && pa.History == pb.History &&
		slices.Equal(pa.BTBTags, pb.BTBTags) && slices.Equal(pa.BTBTgts, pb.BTBTgts) &&
		slices.Equal(pa.BTBValid, pb.BTBValid) && slices.Equal(pa.BTBLRU, pb.BTBLRU) && pa.BTBStamp == pb.BTBStamp &&
		slices.Equal(pa.RAS, pb.RAS) && pa.RASTop == pb.RASTop
}
