package bpred_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
)

// warmStream generates control-flow outcomes that reach every branch of
// the predictor: conditional branches in both directions with targets
// the BTB mostly knows, direct jumps and calls, returns that match the
// return stack and returns that do not, indirect jumps, bursts of calls
// deeper than the RAS (overflow) and of returns past its bottom
// (underflow), PCs spread over more BTB entries than exist (eviction),
// and the odd non-control opcode.
type warmStream struct {
	rng     *rand.Rand
	targets map[uint64]uint64 // last target per PC, so most lookups hit
	depth   int               // calls minus returns, to steer RAS traffic
}

func (s *warmStream) next() bpred.Outcome {
	rng := s.rng
	pc := uint64(rng.Intn(64))
	if rng.Intn(4) == 0 {
		pc = uint64(rng.Intn(1 << 14)) // wide spread: BTB conflicts and evictions
	}
	tgt, ok := s.targets[pc]
	if !ok || rng.Intn(5) == 0 {
		tgt = uint64(rng.Intn(1 << 12))
		s.targets[pc] = tgt
	}
	switch k := rng.Intn(20); {
	case k < 8:
		op := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge}[rng.Intn(4)]
		return bpred.Outcome{Op: op, PC: pc, Taken: rng.Intn(3) > 0, Target: tgt, NextPC: pc + 1}
	case k < 10:
		return bpred.Outcome{Op: isa.OpJmp, PC: pc, Taken: true, Target: tgt, NextPC: pc + 1}
	case k < 13:
		s.depth++
		return bpred.Outcome{Op: isa.OpCall, PC: pc, Taken: true, Target: tgt, NextPC: pc + 1}
	case k < 17:
		// Mostly a return to the matching call site; sometimes anywhere.
		s.depth--
		if rng.Intn(4) == 0 {
			tgt = uint64(rng.Intn(1 << 12))
		}
		return bpred.Outcome{Op: isa.OpRet, PC: pc, Taken: true, Target: tgt, NextPC: pc + 1}
	case k < 19:
		return bpred.Outcome{Op: isa.OpJr, PC: pc, Taken: true, Target: tgt, NextPC: pc + 1}
	}
	return bpred.Outcome{Op: isa.OpAdd, PC: pc, NextPC: pc + 1}
}

// referenceWarm is the three-call warming pass the one-pass Warm fuses.
func referenceWarm(u *bpred.Unit, o bpred.Outcome) {
	u.CheckMispredict(u.Predict(o.PC, o.Op), o)
	u.Update(o)
}

// TestWarmMatchesPredictUpdate is the one-pass Warm's equivalence
// property: on random outcome streams it must leave the predictor
// exactly as Predict+CheckMispredict+Update would — the same Stats after
// every outcome, and at every snapshot point the same delta blocks and
// bytes (so the same dirty marks) and the same full Snapshot.
func TestWarmMatchesPredictUpdate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  bpred.Config
	}{
		// Two RAS slots and a 16-entry BTB: overflow, underflow and
		// eviction on almost every burst.
		{"tiny", bpred.Config{TableEntries: 64, HistoryBits: 4, BTBSets: 8, BTBWays: 2, RASEntries: 2}},
		{"small", smallCfg()},
		{"wide", bpred.Config{TableEntries: 2048, HistoryBits: 12, BTBSets: 64, BTBWays: 4, RASEntries: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := bpred.New(tc.cfg), bpred.New(tc.cfg)
			got.Snapshot(nil)
			want.Snapshot(nil)
			s := &warmStream{rng: rand.New(rand.NewSource(29)), targets: map[uint64]uint64{}}
			var sawRASOverflow, sawRASUnderflow bool
			for round := 0; round < 200; round++ {
				for i, n := 0, s.rng.Intn(300); i < n; i++ {
					o := s.next()
					if s.depth > tc.cfg.RASEntries {
						sawRASOverflow = true
					}
					if s.depth < 0 {
						sawRASUnderflow = true
						s.depth = 0
					}
					got.Warm(o)
					referenceWarm(want, o)
					if got.Stats != want.Stats {
						t.Fatalf("round %d outcome %d (%+v): stats %+v, reference %+v", round, i, o, got.Stats, want.Stats)
					}
				}
				if round%7 == 3 {
					if !reflect.DeepEqual(got.Snapshot(nil), want.Snapshot(nil)) {
						t.Fatalf("round %d: snapshot differs from the reference", round)
					}
					continue
				}
				gd, err := got.Delta(nil, got.Seq())
				if err != nil {
					t.Fatal(err)
				}
				wd, err := want.Delta(nil, want.Seq())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gd, wd) {
					t.Fatalf("round %d: delta differs from the reference (blocks %d/%d vs %d/%d)",
						round, len(gd.TblBlocks), len(gd.BTBBlocks), len(wd.TblBlocks), len(wd.BTBBlocks))
				}
			}
			if !sawRASOverflow || !sawRASUnderflow {
				t.Fatalf("stream never over- (%v) or underflowed (%v) the RAS", sawRASOverflow, sawRASUnderflow)
			}
			st := got.Stats
			if st.DirMispred == 0 || st.TargetMiss == 0 || st.RASMispred == 0 || st.Indirect == 0 {
				t.Fatalf("stream left a mispredict cause unexercised: %+v", st)
			}
		})
	}
}
