package uarch_test

// Lockstep differential tests: the production core and the scan-based
// oracle (core_oracle_test.go) run the same scenario on their own
// machines, and after every Run everything a caller can observe must
// agree — the commit cycle and the energy reading at every instruction,
// the run statistics, every event counter, and the caches, TLBs and
// predictor the run left behind.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/uarch"
)

// pipeline is the surface the lockstep drives on both cores.
type pipeline interface {
	Run(src uarch.InstSource, n uint64, marks []uarch.Mark) (uarch.RunStats, error)
	Cycle() uint64
	Reset()
	ResetPipeline()
}

// Reset kinds a scenario applies before a Run.
const (
	resetNone = iota
	resetPipeline
	resetAll // Machine.Reset + Core.Reset, as a replay worker does between units
)

// lockstepRun is one Run of a scenario. The run is marked at every
// commit boundary from 0 to n+2, so the marks carry each instruction's
// commit cycle, and the ones past the end are filled with the final
// state.
type lockstepRun struct {
	reset int
	n     uint64
}

// lockstep drives both cores through runs over their own copy of the
// stream newSrc builds, comparing after each, and returns what the
// oracle saw.
func lockstep(t testing.TB, cfg uarch.Config, warm func(*uarch.Machine), newSrc func() uarch.InstSource, runs []lockstepRun) oracleHits {
	t.Helper()
	gotM, wantM := uarch.NewMachine(cfg), uarch.NewMachine(cfg)
	if warm != nil {
		warm(gotM)
		warm(wantM)
	}
	got, want := pipeline(uarch.NewCore(gotM)), newOracleCore(wantM)
	gotSrc, wantSrc := newSrc(), newSrc()

	for i, r := range runs {
		switch r.reset {
		case resetPipeline:
			got.ResetPipeline()
			want.ResetPipeline()
		case resetAll:
			gotM.Reset()
			got.Reset()
			wantM.Reset()
			want.Reset()
		}
		gotMarks, wantMarks := make([]uarch.Mark, r.n+3), make([]uarch.Mark, r.n+3)
		for j := range gotMarks {
			gotMarks[j].At, wantMarks[j].At = uint64(j), uint64(j)
		}
		gotStats, gotErr := got.Run(gotSrc, r.n, gotMarks)
		wantStats, wantErr := want.Run(wantSrc, r.n, wantMarks)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("run %d: core error %v, oracle error %v", i, gotErr, wantErr)
		}

		for j := range wantMarks {
			g, w := gotMarks[j], wantMarks[j]
			if g.Cycle != w.Cycle || math.Float64bits(g.EnergyNJ) != math.Float64bits(w.EnergyNJ) {
				t.Fatalf("run %d: instruction %d committed at cycle %d energy %v, oracle cycle %d energy %v",
					i, j, g.Cycle, g.EnergyNJ, w.Cycle, w.EnergyNJ)
			}
		}
		if gotStats != wantStats || math.Float64bits(gotStats.EnergyNJ) != math.Float64bits(wantStats.EnergyNJ) {
			t.Fatalf("run %d: stats %+v, oracle %+v", i, gotStats, wantStats)
		}
		if got.Cycle() != want.Cycle() {
			t.Fatalf("run %d: core at cycle %d, oracle at %d", i, got.Cycle(), want.Cycle())
		}
		for e := energy.Event(0); int(e) < energy.NumEvents; e++ {
			if g, w := gotM.Meter.Count(e), wantM.Meter.Count(e); g != w {
				t.Fatalf("run %d: %d %v events, oracle %d", i, g, e, w)
			}
		}
		if g, w := gotM.Meter.Cycles(), wantM.Meter.Cycles(); g != w {
			t.Fatalf("run %d: meter ticked %d cycles, oracle %d", i, g, w)
		}
		if g, w := gotM.Meter.TotalNJ(), wantM.Meter.TotalNJ(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("run %d: meter total %v, oracle %v", i, g, w)
		}
		if !reflect.DeepEqual(gotM.Hier.Snapshot(nil), wantM.Hier.Snapshot(nil)) {
			t.Fatalf("run %d: cache/TLB snapshots differ", i)
		}
		if !reflect.DeepEqual(gotM.Pred.Snapshot(nil), wantM.Pred.Snapshot(nil)) {
			t.Fatalf("run %d: predictor snapshots differ", i)
		}
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("run %d: machines differ", i)
		}
	}
	return want.hits
}

// scenario is a synthetic stream with the runs to make over it.
type scenario struct {
	cfg   uarch.Config
	insts []functional.DynInst
	runs  []lockstepRun
}

// Instruction kinds the scenario decoder emits.
const (
	kALU = iota
	kMul
	kDiv
	kFPAdd
	kFPDiv
	kLoad
	kStore
	kBranch
	kFarJump
	kCall
	kRet
)

// kindMix maps a nibble to an instruction kind under each profile, so a
// profile can lean on one mechanism: long dependence chains, loads
// (forwarding, MSHR merge and saturation), stores (store-buffer
// back-pressure) or control (mispredicts, I-misses).
var kindMix = [4][16]uint8{
	{kALU, kALU, kALU, kALU, kMul, kDiv, kFPAdd, kFPDiv, kLoad, kLoad, kLoad, kStore, kStore, kBranch, kFarJump, kCall},
	{kLoad, kLoad, kLoad, kLoad, kLoad, kLoad, kLoad, kLoad, kLoad, kStore, kStore, kALU, kALU, kMul, kBranch, kLoad},
	{kStore, kStore, kStore, kStore, kStore, kStore, kStore, kStore, kLoad, kLoad, kALU, kALU, kStore, kStore, kBranch, kStore},
	{kBranch, kBranch, kBranch, kFarJump, kFarJump, kCall, kRet, kALU, kALU, kALU, kLoad, kStore, kBranch, kDiv, kFPDiv, kRet},
}

// scenarioFromBytes decodes arbitrary bytes into a scenario; every input
// is a valid one. Byte 0 picks the configuration, the instruction mix,
// whether the stream ends in a halt and the number of runs; byte 1
// places the run boundaries and picks the reset between runs; each
// following pair of bytes is one instruction.
func scenarioFromBytes(data []byte) scenario {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	h0, h1 := at(0), at(1)
	sc := scenario{cfg: uarch.Config8Way()}
	if h0&1 != 0 {
		sc.cfg = uarch.Config16Way()
	}
	mix := &kindMix[(h0>>1)&3]
	halt := h0&8 != 0
	nRuns := 1 + int(h0>>4)&3

	const (
		loopPCs  = 256      // sequential flow wraps here: an I-cache-resident loop
		hotBase  = 0x10000  // a few hot lines: loads that hit
		farBase  = 0x800000 // one new page per access: misses in every level and the TLB
		farShift = 13
	)
	var (
		pc        uint64
		lastStore uint64 = hotBase
		lastFar   uint64 = farBase
		far       uint64
	)
	reg := func(b byte) isa.Reg { return isa.Reg(1 + b&7) } // r1..r8: short dependence distances
	fp := func(b byte) isa.Reg { return isa.FP(int(b & 3)) }
	address := func(mode, b byte) uint64 {
		switch mode & 3 {
		case 0: // within a few bytes of the youngest store: forwards when closer than 8
			return lastStore + uint64(b&15) - 4
		case 1:
			return hotBase + uint64(b&31)*8
		case 2:
			far++
			lastFar = farBase + far<<farShift
			return lastFar
		}
		return lastFar + uint64(b&7)*8 // same block as the last far access: MSHR merge
	}
	for i := 2; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		d := functional.DynInst{Seq: uint64(len(sc.insts)), PC: pc, NextPC: (pc + 1) % loopPCs}
		switch mix[a&15] {
		case kALU:
			d.Inst = isa.Inst{Op: isa.OpAdd, Dst: reg(b), Src1: reg(b >> 3), Src2: reg(a >> 4)}
		case kMul:
			d.Inst = isa.Inst{Op: isa.OpMul, Dst: reg(b), Src1: reg(b >> 3), Src2: reg(a >> 4)}
		case kDiv:
			d.Inst = isa.Inst{Op: isa.OpDiv, Dst: reg(b), Src1: reg(b >> 3), Src2: reg(a >> 4)}
		case kFPAdd:
			d.Inst = isa.Inst{Op: isa.OpFAdd, Dst: fp(b), Src1: fp(b >> 2), Src2: fp(b >> 4)}
		case kFPDiv:
			d.Inst = isa.Inst{Op: isa.OpFDiv, Dst: fp(b), Src1: fp(b >> 2), Src2: fp(b >> 4)}
		case kLoad:
			d.Inst = isa.Inst{Op: isa.OpLoad, Dst: reg(b >> 5), Src1: reg(a >> 6)}
			d.EA = address(a>>4, b)
		case kStore:
			d.Inst = isa.Inst{Op: isa.OpStore, Src1: reg(a >> 6), Src2: reg(b >> 5)}
			d.EA = address(a>>4, b)
			lastStore = d.EA
		case kBranch:
			d.Inst = isa.Inst{Op: isa.OpBne, Src1: reg(b >> 1), Src2: isa.RegZero, Target: uint32((pc + 8) % loopPCs)}
			if d.Taken = b&1 != 0; d.Taken {
				d.NextPC = uint64(d.Inst.Target)
			}
		case kFarJump: // a block the I-cache has not seen, then back into the loop
			d.Inst = isa.Inst{Op: isa.OpJmp, Target: uint32(loopPCs + (uint64(b)+1)<<6)}
			d.Taken, d.NextPC = true, uint64(d.Inst.Target)
		case kCall:
			d.Inst = isa.Inst{Op: isa.OpCall, Target: uint32((pc + 16) % loopPCs)}
			d.Taken, d.NextPC = true, uint64(d.Inst.Target)
		case kRet:
			d.Inst = isa.Inst{Op: isa.OpRet}
			d.Taken, d.NextPC = true, uint64(b)%loopPCs
		}
		sc.insts = append(sc.insts, d)
		pc = d.NextPC
	}
	if halt {
		sc.insts = append(sc.insts, functional.DynInst{Seq: uint64(len(sc.insts)), PC: pc, Inst: isa.Inst{Op: isa.OpHalt}, NextPC: pc})
	}

	// Run boundaries: every run but the last takes a byte-1-dependent
	// share of what is left, so budgets end mid-window; the last asks for
	// more than is left when the stream halts (the source runs dry), and
	// for less otherwise (the budget runs out first).
	left := uint64(len(sc.insts))
	for r := 0; r < nRuns; r++ {
		run := lockstepRun{n: left * uint64(1+(h1>>(2*r))&3) / 5}
		if r > 0 {
			run.reset = int(h1>>(2*r+1)) % 3
		}
		if r == nRuns-1 {
			if run.n = left + 7; !halt && left > 3 {
				run.n = left - 3
			}
		}
		sc.runs = append(sc.runs, run)
		left -= min(left, run.n)
	}
	return sc
}

func (sc scenario) lockstep(t testing.TB) oracleHits {
	t.Helper()
	return lockstep(t, sc.cfg, nil, func() uarch.InstSource { return &streamSource{insts: sc.insts} }, sc.runs)
}

// randomScenarioBytes returns n seeded random instructions under the
// given header bytes.
func randomScenarioBytes(seed int64, h0, h1 byte, n int) []byte {
	data := make([]byte, 2+2*n)
	rand.New(rand.NewSource(seed)).Read(data)
	data[0], data[1] = h0, h1
	return data
}

// TestCoreLockstepSynthetic runs seeded random streams of every profile
// on both configurations, with and without a halt, over one to four
// runs with every reset kind between them, and checks that between them
// they reached each mechanism whose timing the wakeup and the idle skip
// must reproduce.
func TestCoreLockstepSynthetic(t *testing.T) {
	var hits oracleHits
	for seed := int64(0); seed < 64; seed++ {
		h0 := byte(seed) // all 16 cfg/profile/halt combinations, 1-4 runs
		h1 := byte(seed * 37)
		sc := scenarioFromBytes(randomScenarioBytes(seed, h0, h1, 1500))
		hits.add(sc.lockstep(t))
	}
	if hits.forwards == 0 || hits.mshrMerge == 0 || hits.mshrFull == 0 || hits.sbFull == 0 || hits.iMiss == 0 || hits.halts == 0 || hits.redirects == 0 {
		t.Errorf("streams missed a mechanism: %+v", hits)
	}
	t.Logf("mechanisms reached: %+v", hits)
}

// TestCoreLockstepSlowMachine repeats the comparison with latencies well
// beyond the standard machines', which the wake wheel must have been
// sized for from the configuration.
func TestCoreLockstepSlowMachine(t *testing.T) {
	for seed := int64(100); seed < 108; seed++ {
		sc := scenarioFromBytes(randomScenarioBytes(seed, byte(seed<<1), byte(seed), 800))
		sc.cfg.Lat.Mem, sc.cfg.Lat.TLB = 900, 300
		sc.cfg.OpLat[isa.ClassIntDiv] = 97
		sc.lockstep(t)
	}
}

// TestCoreLockstepSuite runs suite programs on both configurations from
// cold and from functionally warmed state, as two sampling units with a
// pipeline reset between them.
func TestCoreLockstepSuite(t *testing.T) {
	const warmInsts, unitInsts = 40_000, 4_000
	for _, name := range []string{"gccx", "mcfx", "craftyx", "gzipx"} {
		spec, err := program.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := program.MustGenerate(spec, 100_000)
		for _, cfg := range []uarch.Config{uarch.Config8Way(), uarch.Config16Way()} {
			for _, warmed := range []bool{false, true} {
				state := "cold"
				if warmed {
					state = "warmed"
				}
				t.Run(name+"/"+cfg.Name+"/"+state, func(t *testing.T) {
					newSrc := func() uarch.InstSource {
						cpu := functional.New(p)
						if _, err := cpu.Run(warmInsts); err != nil {
							t.Fatal(err)
						}
						return &uarch.Source{CPU: cpu}
					}
					var warm func(*uarch.Machine)
					if warmed {
						warm = func(m *uarch.Machine) {
							if err := uarch.NewWarmer(m, cfg).ForwardBatch(functional.New(p), warmInsts); err != nil {
								t.Fatal(err)
							}
						}
					}
					lockstep(t, cfg, warm, newSrc, []lockstepRun{{n: unitInsts}, {reset: resetPipeline, n: unitInsts}})
				})
			}
		}
	}
}

// FuzzCoreLockstep decodes the input into a scenario and requires the
// two cores to agree on it.
func FuzzCoreLockstep(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(randomScenarioBytes(seed, byte(seed*5), byte(seed*91), 300))
	}
	f.Add([]byte{})
	f.Add([]byte{0x08})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096] // the oracle steps every cycle; bound one input's cost
		}
		scenarioFromBytes(data).lockstep(t)
	})
}
