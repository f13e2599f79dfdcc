package bpred_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/delta"
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
// exactly. A twin predictor fed the same traffic carves its deltas and
// snapshots from one reused arena, poisoned before every round: each
// must equal the fresh one element for element, with its lengths and
// capacities cut to them, and chain to the same snapshots.
func TestPredDeltaMatchesSnapshot(t *testing.T) {
	u, twin := bpred.New(smallCfg()), bpred.New(smallCfg())
	a := new(delta.Arena)
	rng := rand.New(rand.NewSource(23))
	// The keyframe snapshot resets dirty tracking and starts the chain.
	tracked := u.Snapshot(nil)
	trackedA := twin.Snapshot(a).Clone()
	for round := 0; round < 60; round++ {
		for i := 0; i < rng.Intn(400); i++ {
			o := randomOutcome(rng)
			u.Warm(o)
			twin.Warm(o)
		}
		if round == 30 {
			u.Flush() // must mark everything
			twin.Flush()
		}
		d, err := u.Delta(nil, u.Seq())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		a.Reset(delta.Sizes{})
		a.Poison()
		da, err := twin.Delta(a, twin.Seq())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := tracked.Apply(d); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := trackedA.Apply(da); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		full, fullA := u.Snapshot(nil), twin.Snapshot(a)
		if !reflect.DeepEqual(tracked, full) || !reflect.DeepEqual(trackedA, full) {
			t.Fatalf("round %d: delta-tracked predictor state diverged", round)
		}
		sameCarve(t, "delta", d, da)
		sameCarve(t, "snapshot", full, fullA)
	}
	// Chain discipline: stale or pre-snapshot baselines fail.
	if _, err := u.Delta(nil, u.Seq()-1); err == nil {
		t.Fatal("stale baseline must fail")
	}
	if _, err := bpred.New(smallCfg()).Delta(nil, 0); err == nil {
		t.Fatal("delta before first snapshot must fail")
	}
}

// sameCarve fails unless carved, a snapshot or delta carved from an
// arena, equals fresh, its counterpart made without one, element for
// element, and every slice of carved has fresh's length and a capacity
// cut to it.
func sameCarve(t *testing.T, what string, fresh, carved any) {
	t.Helper()
	if !reflect.DeepEqual(fresh, carved) {
		t.Fatalf("%s carved from the arena differs from the fresh one", what)
	}
	fv, cv := reflect.ValueOf(fresh).Elem(), reflect.ValueOf(carved).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if f := cv.Field(i); f.Kind() == reflect.Slice && (f.Len() != fv.Field(i).Len() || f.Cap() != f.Len()) {
			t.Fatalf("carved %s.%s has len %d, cap %d; the fresh one len %d",
				what, cv.Type().Field(i).Name, f.Len(), f.Cap(), fv.Field(i).Len())
		}
	}
}

// TestPredDeltaSlicesExact pins the delta's allocation to its payload:
// every slice is sized exactly (cap == len), not grown block by block,
// whether it is made fresh or carved from a reused, poisoned arena.
func TestPredDeltaSlicesExact(t *testing.T) {
	u, twin := bpred.New(smallCfg()), bpred.New(smallCfg())
	a := new(delta.Arena)
	rng := rand.New(rand.NewSource(41))
	u.Snapshot(nil)
	twin.Snapshot(a)
	for round := 0; round < 20; round++ {
		for i := 0; i < rng.Intn(200); i++ {
			o := randomOutcome(rng)
			u.Warm(o)
			twin.Warm(o)
		}
		if round == 10 {
			u.Flush()
			twin.Flush()
		}
		d, err := u.Delta(nil, u.Seq())
		if err != nil {
			t.Fatal(err)
		}
		dv := reflect.ValueOf(d).Elem()
		for i := 0; i < dv.NumField(); i++ {
			if f := dv.Field(i); f.Kind() == reflect.Slice && f.Cap() != f.Len() {
				t.Fatalf("round %d: Delta.%s has len %d, cap %d", round, dv.Type().Field(i).Name, f.Len(), f.Cap())
			}
		}
		a.Reset(delta.Sizes{})
		a.Poison()
		da, err := twin.Delta(a, twin.Seq())
		if err != nil {
			t.Fatal(err)
		}
		sameCarve(t, "delta", d, da)
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
	s := u.Snapshot(nil)
	mk := func() *bpred.Delta {
		v := bpred.New(smallCfg())
		r2 := rand.New(rand.NewSource(3))
		v.Snapshot(nil)
		for i := 0; i < 100; i++ {
			v.Warm(randomOutcome(r2))
		}
		d, err := v.Delta(nil, v.Seq())
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

// randomPredDelta builds a structurally valid delta over n table and
// btbn BTB entries at the given grains: random ascending block subsets
// (ragged last blocks included about a third of the time) with random
// contents.
func randomPredDelta(rng *rand.Rand, n, btbn, ras int, tg, bg uint8) *bpred.Delta {
	d := &bpred.Delta{N: n, BTBN: btbn, TblGrain: tg, BTBGrain: bg,
		History: rng.Uint64(), BTBStamp: rng.Uint64(), RASTop: rng.Intn(ras + 1)}
	for b := 0; b<<tg < n; b++ {
		if rng.Intn(3) != 0 {
			continue
		}
		d.TblBlocks = append(d.TblBlocks, uint32(b))
		for i := b << tg; i < min((b+1)<<tg, n); i++ {
			d.Bimodal = append(d.Bimodal, uint8(rng.Intn(4)))
			d.Gshare = append(d.Gshare, uint8(rng.Intn(4)))
			d.Chooser = append(d.Chooser, uint8(rng.Intn(4)))
		}
	}
	for b := 0; b<<bg < btbn; b++ {
		if rng.Intn(3) != 0 {
			continue
		}
		d.BTBBlocks = append(d.BTBBlocks, uint32(b))
		for i := b << bg; i < min((b+1)<<bg, btbn); i++ {
			d.BTBTags = append(d.BTBTags, rng.Uint64())
			d.BTBTgts = append(d.BTBTgts, rng.Uint64())
			d.BTBLRU = append(d.BTBLRU, rng.Uint64())
			d.BTBValid = append(d.BTBValid, rng.Intn(2) == 0)
		}
	}
	for i := 0; i < ras; i++ {
		d.RAS = append(d.RAS, rng.Uint64())
	}
	return d
}

// randomPredState is a full state of n table, btbn BTB and ras RAS
// entries with random contents.
func randomPredState(rng *rand.Rand, n, btbn, ras int) *bpred.State {
	s := &bpred.State{History: rng.Uint64(), BTBStamp: rng.Uint64(), RASTop: rng.Intn(ras + 1)}
	for i := 0; i < n; i++ {
		s.Bimodal = append(s.Bimodal, uint8(rng.Intn(4)))
		s.Gshare = append(s.Gshare, uint8(rng.Intn(4)))
		s.Chooser = append(s.Chooser, uint8(rng.Intn(4)))
	}
	for i := 0; i < btbn; i++ {
		s.BTBTags = append(s.BTBTags, rng.Uint64())
		s.BTBTgts = append(s.BTBTgts, rng.Uint64())
		s.BTBLRU = append(s.BTBLRU, rng.Uint64())
		s.BTBValid = append(s.BTBValid, rng.Intn(2) == 0)
	}
	for i := 0; i < ras; i++ {
		s.RAS = append(s.RAS, rng.Uint64())
	}
	return s
}

// applyPredByBlock is the generic per-block copy State.Apply's
// small-block kernel must agree with.
func applyPredByBlock(s *bpred.State, d *bpred.Delta) {
	off := 0
	for _, b := range d.TblBlocks {
		lo := int(b) << d.TblGrain
		hi := min(lo+1<<d.TblGrain, d.N)
		w := hi - lo
		copy(s.Bimodal[lo:hi], d.Bimodal[off:off+w])
		copy(s.Gshare[lo:hi], d.Gshare[off:off+w])
		copy(s.Chooser[lo:hi], d.Chooser[off:off+w])
		off += w
	}
	off = 0
	for _, b := range d.BTBBlocks {
		lo := int(b) << d.BTBGrain
		hi := min(lo+1<<d.BTBGrain, d.BTBN)
		w := hi - lo
		copy(s.BTBTags[lo:hi], d.BTBTags[off:off+w])
		copy(s.BTBTgts[lo:hi], d.BTBTgts[off:off+w])
		copy(s.BTBLRU[lo:hi], d.BTBLRU[off:off+w])
		copy(s.BTBValid[lo:hi], d.BTBValid[off:off+w])
		off += w
	}
	s.History, s.BTBStamp = d.History, d.BTBStamp
	copy(s.RAS, d.RAS)
	s.RASTop = d.RASTop
}

// TestPredApplyKernelMatchesBlockCopy pins State.Apply, which copies
// each block element by element, to the generic per-block copy for every
// table and BTB grain from 0 to 3, on ragged geometries whose last block
// is short.
func TestPredApplyKernelMatchesBlockCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const ras = 4
	for tg := uint8(0); tg <= 3; tg++ {
		for bg := uint8(0); bg <= 3; bg++ {
			for _, geom := range [][2]int{{1, 1}, {7, 5}, {256, 64}, {259, 67}} {
				n, btbn := geom[0], geom[1]
				for trial := 0; trial < 10; trial++ {
					s := randomPredState(rng, n, btbn, ras)
					d := randomPredDelta(rng, n, btbn, ras, tg, bg)
					got, want := s.Clone(), s.Clone()
					if err := got.Apply(d); err != nil {
						t.Fatalf("grains %d/%d geometry %v: %v", tg, bg, geom, err)
					}
					applyPredByBlock(want, d)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("grains %d/%d geometry %v trial %d: kernel diverged from the per-block copy", tg, bg, geom, trial)
					}
				}
			}
		}
	}
}
