package checkpoint_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
	"repro/internal/uarch"
)

// sweepRun is what one capture sweep produced: the emitted units, the
// Summary and the error.
type sweepRun struct {
	units []*checkpoint.Unit
	sum   *checkpoint.Summary
	err   error
}

// sweepFn is the serial oracle's signature: CaptureStream's without
// the wall-clock Timing (captureStream).
type sweepFn func(context.Context, *program.Program, uarch.Config, checkpoint.Params, func(*checkpoint.Unit) bool) (*checkpoint.Summary, error)

// captureStream is CaptureStream as a sweepFn.
func captureStream(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, emit func(*checkpoint.Unit) bool) (*checkpoint.Summary, error) {
	sum, _, err := checkpoint.CaptureStream(ctx, prog, cfg, p, emit)
	return sum, err
}

// runSweep runs one sweep. emit declines the stopAt-th unit and cancels
// the context while taking the cancelAt-th (1-based; 0 = never).
func runSweep(sweep sweepFn, prog *program.Program, cfg uarch.Config, p checkpoint.Params, stopAt, cancelAt int) sweepRun {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var r sweepRun
	r.sum, r.err = sweep(ctx, prog, cfg, p, func(u *checkpoint.Unit) bool {
		if len(r.units)+1 == stopAt {
			return false
		}
		r.units = append(r.units, u)
		if len(r.units) == cancelAt {
			cancel()
		}
		return true
	})
	return r
}

// imagePages lists an image's page numbers, ascending, with their arrays.
func imagePages(img *mem.Image) ([]uint64, map[uint64]*[mem.PageSize]byte) {
	pages := map[uint64]*[mem.PageSize]byte{}
	img.VisitPages(func(num uint64, data *[mem.PageSize]byte) { pages[num] = data })
	nums := make([]uint64, 0, len(pages))
	for n := range pages {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	return nums, pages
}

// sameEncoding reports how two units of the same position in two
// sweeps differ as captured — not as materialized: geometry and Arch,
// the resume state, keyframe or delta encoding and chain link, the
// memory image's or delta's pages byte for byte, and the warm
// snapshot's or delta's blocks and bytes. "" means identical.
func sameEncoding(a, b, aPrev, bPrev *checkpoint.Unit) string {
	switch {
	case a.Index != b.Index || a.Start != b.Start || a.LaunchAt != b.LaunchAt:
		return fmt.Sprintf("geometry %d@%d vs %d@%d", a.Index, a.LaunchAt, b.Index, b.LaunchAt)
	case a.Arch != b.Arch:
		return "arch state"
	case a.HaveIBlock != b.HaveIBlock || a.LastIBlock != b.LastIBlock:
		return fmt.Sprintf("fetch block %v/%#x vs %v/%#x", a.HaveIBlock, a.LastIBlock, b.HaveIBlock, b.LastIBlock)
	case (a.Mem == nil) != (b.Mem == nil) || (a.MemDelta == nil) != (b.MemDelta == nil):
		return "memory encoding (keyframe vs delta)"
	case (a.Prev == nil) != (b.Prev == nil) || a.Prev != nil && (a.Prev != aPrev || b.Prev != bPrev):
		return "chain link"
	case !reflect.DeepEqual(a.Warm, b.Warm):
		return "warm snapshot"
	case !reflect.DeepEqual(a.Delta, b.Delta):
		return "warm delta"
	}
	if a.Mem != nil {
		an, ap := imagePages(a.Mem)
		bn, bp := imagePages(b.Mem)
		if !slices.Equal(an, bn) {
			return fmt.Sprintf("memory image lists %d pages vs %d", len(an), len(bn))
		}
		for _, n := range an {
			if *ap[n] != *bp[n] {
				return fmt.Sprintf("memory page %#x", n)
			}
		}
	}
	if a.MemDelta != nil {
		ad, bd := a.MemDelta, b.MemDelta
		if ad.Since != bd.Since || ad.Seq != bd.Seq || !slices.Equal(ad.Nums, bd.Nums) || len(ad.Pages) != len(bd.Pages) {
			return fmt.Sprintf("memory delta lists %d pages vs %d", len(ad.Nums), len(bd.Nums))
		}
		for i := range ad.Pages {
			if *ad.Pages[i] != *bd.Pages[i] {
				return fmt.Sprintf("memory delta page %#x", ad.Nums[i])
			}
		}
	}
	return ""
}

// compareSweeps reports the first difference between a CaptureStream
// run and the serial oracle's run of the same sweep ("" if none):
// error, Summary, and every unit's encoding. rs is the journal both
// resumed from (nil: a cold sweep), whose last unit the first emitted
// unit's chain link may name.
func compareSweeps(got, want sweepRun, rs *checkpoint.ResumeState) string {
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		return fmt.Sprintf("error %v, oracle %v", got.err, want.err)
	}
	if (got.sum == nil) != (want.sum == nil) {
		return "summary presence"
	}
	if got.sum != nil && *got.sum != *want.sum {
		return fmt.Sprintf("summary %+v, oracle %+v", *got.sum, *want.sum)
	}
	if len(got.units) != len(want.units) {
		return fmt.Sprintf("%d units, oracle %d", len(got.units), len(want.units))
	}
	var gPrev, wPrev *checkpoint.Unit
	if rs != nil && len(rs.Units) > 0 {
		gPrev = rs.Units[len(rs.Units)-1]
		wPrev = gPrev
	}
	for i := range got.units {
		if diff := sameEncoding(got.units[i], want.units[i], gPrev, wPrev); diff != "" {
			return fmt.Sprintf("unit %d: %s", i, diff)
		}
		gPrev, wPrev = got.units[i], want.units[i]
	}
	return ""
}

// lockstep runs the sweep through CaptureStream and the serial oracle
// and returns the first difference ("" if none) and the oracle's run.
func lockstep(prog *program.Program, cfg uarch.Config, p checkpoint.Params, stopAt, cancelAt int) (string, sweepRun) {
	want := runSweep(checkpoint.SerialCaptureOracle, prog, cfg, p, stopAt, cancelAt)
	got := runSweep(captureStream, prog, cfg, p, stopAt, cancelAt)
	return compareSweeps(got, want, p.Resume), want
}

// faultingProgram executes loads, stores, calls and branches for a
// while, then jumps outside its code: the sweep faults in the middle of
// a fast-forward gap, 2,104 instructions in. Its Length claims far more,
// so the plan's boundaries run past the fault.
func faultingProgram() *program.Program {
	code := []isa.Inst{
		{Op: isa.OpAddI, Dst: 1, Src1: isa.RegZero, Imm: 300},
		{Op: isa.OpAddI, Dst: 2, Src1: isa.RegZero, Imm: 4096},
		{Op: isa.OpAddI, Dst: 4, Src1: isa.RegZero, Imm: 1 << 40},
		{Op: isa.OpLoad, Dst: 3, Src1: 2}, // 3: the loop
		{Op: isa.OpStore, Src1: 2, Src2: 3, Imm: 8},
		{Op: isa.OpAddI, Dst: 2, Src1: 2, Imm: 72},
		{Op: isa.OpCall, Target: 10},
		{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: -1},
		{Op: isa.OpBne, Src1: 1, Src2: isa.RegZero, Target: 3},
		{Op: isa.OpJr, Src1: 4},
		{Op: isa.OpRet}, // 10: the called routine
	}
	return &program.Program{Name: "fault", Code: code, Length: 60_000}
}

// overlong returns a program with prog's code and image whose Length
// claims half as much again as it runs: the plan's later boundaries lie
// past the Halt, so the sweep ends mid-gap.
func overlong(tb testing.TB, prog *program.Program) *program.Program {
	tb.Helper()
	p, err := program.New(prog.Name, prog.Code, prog.Segs, prog.Entry, prog.Length*3/2)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// journalOf is the resume state an interrupted run of p would have
// journaled after its first n units.
func journalOf(ref sweepRun, prog *program.Program, p checkpoint.Params, n int) *checkpoint.ResumeState {
	return &checkpoint.ResumeState{Units: ref.units[:n], PopulationUnits: prog.Length / p.U}
}

// TestCaptureMatchesSerialOracle is the two-stage sweep's bit-identity
// guarantee: over every plan shape the capture path distinguishes, it
// emits exactly the serial loop's units — encodings, pages, warm blocks
// and bytes, resume state — with the same Summary.
func TestCaptureMatchesSerialOracle(t *testing.T) {
	gcc := genProg(t, "gccx", 200_000)
	mcf := genProg(t, "mcfx", 120_000)
	cfg := uarch.Config8Way()
	icache := &uarch.WarmComponents{ICache: true}
	dataPred := &uarch.WarmComponents{DCache: true, Predictor: true}
	none := &uarch.WarmComponents{}
	warm := checkpoint.Params{U: 1000, W: 2000, K: 12, FunctionalWarm: true}
	with := func(f func(*checkpoint.Params)) checkpoint.Params {
		p := warm
		f(&p)
		return p
	}
	for _, tc := range []struct {
		name             string
		prog             *program.Program
		p                checkpoint.Params
		stopAt, cancelAt int
		resumeAt         int // resume from a journal of the first n units
	}{
		{name: "warm sparse", prog: gcc, p: warm},
		{name: "cold sparse", prog: gcc, p: with(func(p *checkpoint.Params) { p.FunctionalWarm, p.W = false, 0 })},
		{name: "warm dense", prog: gcc, p: with(func(p *checkpoint.Params) { p.K = 1 })},
		{name: "cold dense", prog: mcf, p: with(func(p *checkpoint.Params) { p.K, p.FunctionalWarm = 1, false })},
		{name: "dense, units closer than W", prog: mcf, p: with(func(p *checkpoint.Params) { p.U, p.K = 300, 1 })},
		{name: "multi-offset", prog: gcc, p: with(func(p *checkpoint.Params) { p.Offsets = []uint64{0, 1, 7} })},
		{name: "multi-offset cold", prog: mcf, p: with(func(p *checkpoint.Params) { p.Offsets, p.FunctionalWarm = []uint64{2, 3}, false })},
		{name: "max units", prog: gcc, p: with(func(p *checkpoint.Params) { p.MaxUnits = 5 })},
		{name: "halts mid-gap", prog: overlong(t, gcc), p: warm},
		{name: "halts mid-gap, cold", prog: overlong(t, mcf), p: with(func(p *checkpoint.Params) { p.FunctionalWarm = false })},
		{name: "faults mid-gap", prog: faultingProgram(), p: with(func(p *checkpoint.Params) { p.U, p.W, p.K = 100, 50, 3 })},
		{name: "faults mid-gap, cold", prog: faultingProgram(), p: with(func(p *checkpoint.Params) { p.U, p.W, p.K, p.FunctionalWarm = 100, 0, 3, false })},
		{name: "I-cache only", prog: gcc, p: with(func(p *checkpoint.Params) { p.Components = icache })},
		{name: "D-cache and predictor", prog: mcf, p: with(func(p *checkpoint.Params) { p.Components = dataPred })},
		{name: "no components", prog: gcc, p: with(func(p *checkpoint.Params) { p.Components = none })},
		{name: "keyframe 1", prog: gcc, p: with(func(p *checkpoint.Params) { p.Keyframe = 1 })},
		{name: "keyframe 4", prog: gcc, p: with(func(p *checkpoint.Params) { p.Keyframe = 4 })},
		{name: "keyframe 64, dense", prog: gcc, p: with(func(p *checkpoint.Params) { p.Keyframe, p.K = 64, 1 })},
		{name: "resumed", prog: gcc, p: with(func(p *checkpoint.Params) { p.Keyframe = 4 }), resumeAt: 6},
		{name: "resumed cold", prog: mcf, p: with(func(p *checkpoint.Params) { p.Keyframe, p.FunctionalWarm = 4, false }), resumeAt: 3},
		{name: "resumed multi-offset", prog: gcc, p: with(func(p *checkpoint.Params) { p.Offsets = []uint64{0, 5} }), resumeAt: 9},
		{name: "emit declines", prog: gcc, p: warm, stopAt: 7},
		{name: "emit declines, dense", prog: gcc, p: with(func(p *checkpoint.Params) { p.K = 1 }), stopAt: 50},
		{name: "cancelled", prog: gcc, p: warm, cancelAt: 7},
		{name: "cancelled, dense cold", prog: mcf, p: with(func(p *checkpoint.Params) { p.K, p.FunctionalWarm = 1, false }), cancelAt: 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			if tc.resumeAt > 0 {
				ref := runSweep(checkpoint.SerialCaptureOracle, tc.prog, cfg, p, 0, 0)
				if len(ref.units) <= tc.resumeAt {
					t.Fatalf("plan has %d units; cannot resume after %d", len(ref.units), tc.resumeAt)
				}
				p.Resume = journalOf(ref, tc.prog, p, tc.resumeAt)
			}
			diff, want := lockstep(tc.prog, cfg, p, tc.stopAt, tc.cancelAt)
			if diff != "" {
				t.Fatal(diff)
			}
			if len(want.units) == 0 {
				t.Fatal("the oracle emitted no units: the case exercises nothing")
			}
		})
	}
}

// lockstepProgs caches the fuzzer's programs, generated on first use.
var lockstepProgs = struct {
	sync.Mutex
	m map[string]*program.Program
}{m: map[string]*program.Program{}}

func lockstepProg(t testing.TB, name string, length uint64) *program.Program {
	lockstepProgs.Lock()
	defer lockstepProgs.Unlock()
	key := fmt.Sprintf("%s/%d", name, length)
	if p, ok := lockstepProgs.m[key]; ok {
		return p
	}
	p := genProg(t, name, length)
	lockstepProgs.m[key] = p
	return p
}

// FuzzCaptureLockstep decodes bytes into a program, a plan and a stop
// point, and requires CaptureStream to match the serial oracle on them:
// the same units, encodings, bytes and resume state, and Summary (or the
// same error, for plans Validate rejects and programs that fault).
func FuzzCaptureLockstep(f *testing.F) {
	f.Add([]byte{0, 2, 1, 4, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 2, 0, 3, 1, 7, 2, 5, 9, 1})
	f.Add([]byte{2, 1, 0, 3, 0, 0, 3, 0, 1, 0})
	f.Add([]byte{3, 0, 1, 2, 1, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 2, 2, 0, 0x81, 1, 2, 1, 0, 4, 0, 1})
	f.Add([]byte{1, 1, 1, 1, 7, 1, 0, 3, 2, 0, 3})
	cfg := uarch.Config8Way()
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		var prog *program.Program
		switch next() % 4 {
		case 0:
			prog = lockstepProg(t, "gzipx", 60_000)
		case 1:
			prog = lockstepProg(t, "gccx", 80_000)
		case 2:
			prog = lockstepProg(t, "mcfx", 50_000)
		default:
			prog = faultingProgram()
		}
		p := checkpoint.Params{
			U: []uint64{100, 250, 1000}[next()%3],
			W: []uint64{0, 500, 2000}[next()%3],
			K: uint64(1 + next()%16),
		}
		flags := next()
		p.FunctionalWarm = flags&1 != 0
		if flags&2 != 0 {
			prog = overlong(t, prog)
		}
		if flags&0x80 != 0 {
			p.Components = &uarch.WarmComponents{ICache: flags&4 != 0, DCache: flags&8 != 0, Predictor: flags&16 != 0}
		}
		if n := next() % 4; n > 1 {
			for i := 0; i < n; i++ {
				p.Offsets = append(p.Offsets, uint64(next()%16)) // may be invalid: both must reject it alike
			}
		} else {
			p.J = uint64(next() % 16)
		}
		p.MaxUnits = next() % 8
		p.Keyframe = next() % 9
		stopAt, cancelAt := next()%40, 0
		if stopAt%3 == 0 {
			stopAt, cancelAt = 0, stopAt/3
		}
		if diff, _ := lockstep(prog, cfg, p, stopAt, cancelAt); diff != "" {
			t.Fatalf("plan %+v, stop %d, cancel %d: %s", p, stopAt, cancelAt, diff)
		}
	})
}
