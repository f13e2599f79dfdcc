package functional_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// warmRecords filters RunDyn's records of one call by RunWarm's rule,
// written out independently of the interpreter: a load, store, control
// instruction or halt, or an instruction whose fetch block differs from
// the previous instruction's (the call's first one always).
func warmRecords(all []functional.DynRec, blockBits uint) []functional.DynRec {
	var out []functional.DynRec
	for i, r := range all {
		block := r.PC * isa.InstBytes >> blockBits
		switch {
		case i == 0, block != all[i-1].PC*isa.InstBytes>>blockBits:
		case r.Class == isa.ClassLoad, r.Class == isa.ClassStore,
			r.Class == isa.ClassBranch, r.Class == isa.ClassJump,
			r.Class == isa.ClassRet, r.Class == isa.ClassHalt:
		default:
			continue
		}
		out = append(out, r)
	}
	return out
}

// memDigest hashes every allocated page of m with its number.
func memDigest(m *mem.Memory) [32]byte {
	h := sha256.New()
	page := make([]byte, mem.PageSize)
	for _, num := range m.Pages() {
		h.Write(binary.LittleEndian.AppendUint64(nil, num))
		m.ReadBytes(num*mem.PageSize, page)
		h.Write(page)
	}
	return [32]byte(h.Sum(nil))
}

// dirtyDigest hashes the pages m wrote since its last snapshot point,
// with their numbers, and makes this a snapshot point: two memories
// equal at one point that match here are equal again.
func dirtyDigest(t *testing.T, m *mem.Memory) [32]byte {
	t.Helper()
	d, err := m.Delta(m.Seq())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for i, num := range d.Nums {
		h.Write(binary.LittleEndian.AppendUint64(nil, num))
		h.Write(d.Pages[i][:])
	}
	return [32]byte(h.Sum(nil))
}

// sameState fails t unless the two CPUs are at the same point with the
// same registers and the same memory writes since the last check.
func sameState(t *testing.T, call int, got, want *functional.CPU) {
	t.Helper()
	if got.PC != want.PC || got.Count != want.Count || got.Halted != want.Halted || got.Regs != want.Regs {
		t.Fatalf("call %d: RunWarm left PC %d count %d halted %v, RunDyn PC %d count %d halted %v (registers equal: %v)",
			call, got.PC, got.Count, got.Halted, want.PC, want.Count, want.Halted, got.Regs == want.Regs)
	}
	if dirtyDigest(t, got.Mem) != dirtyDigest(t, want.Mem) {
		t.Fatalf("call %d: memory writes differ at count %d", call, got.Count)
	}
}

// lockstep runs prog under RunWarm in calls of random length into a
// ring of ringLen records and, after each call, runs a twin CPU the
// same number of instructions under RunDyn: RunWarm's records must be
// exactly the twin's filtered by warmRecords, and the two CPUs must
// agree: PC, count, registers and the memory written, after every call,
// and all of memory at the end. It returns the RunWarm CPU and the error
// that ended the program (nil at its halt).
func lockstep(t *testing.T, prog *program.Program, blockBits uint, ringLen int, seed int64) (*functional.CPU, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cpu, twin := functional.New(prog), functional.New(prog)
	cpu.Mem.Snapshot() // the baseline sameState's dirty pages are taken against
	twin.Mem.Snapshot()
	ring := make([]functional.DynRec, ringLen)
	all := make([]functional.DynRec, 0, 1<<14)
	buf := make([]functional.DynRec, 1<<12)
	for call := 0; ; call++ {
		max := uint64(1 + rng.Intn(3*ringLen))
		recs, insts, err := cpu.RunWarm(ring, max, blockBits)
		if insts > max || recs > len(ring) {
			t.Fatalf("call %d: RunWarm ran %d instructions and wrote %d records, limits %d and %d",
				call, insts, recs, max, len(ring))
		}
		if err == nil && !cpu.Halted && insts < max && recs < len(ring) {
			t.Fatalf("call %d: RunWarm stopped after %d of %d instructions with %d of %d records and no halt or fault",
				call, insts, max, recs, len(ring))
		}
		all = all[:0]
		for left := insts; left > 0; {
			n := min(left, uint64(len(buf)))
			k, e := twin.RunDyn(buf[:n], n)
			all = append(all, buf[:k]...)
			left -= k
			if e != nil || k == 0 {
				t.Fatalf("call %d: RunDyn stopped (%v) %d instructions short of RunWarm's %d", call, e, left, insts)
			}
		}
		if err != nil {
			// RunWarm faulted here: the twin's next instruction must too.
			if _, e := twin.RunDyn(buf[:1], 1); e == nil {
				t.Fatalf("call %d: RunWarm returned %v, RunDyn ran on", call, err)
			}
		}
		want := warmRecords(all, blockBits)
		if !slices.Equal(ring[:recs], want) {
			t.Fatalf("call %d at count %d: RunWarm wrote %d records, RunDyn's %d filtered give %d; first difference: %s",
				call, cpu.Count, recs, len(all), len(want), firstDiff(ring[:recs], want))
		}
		sameState(t, call, cpu, twin)
		if err != nil || cpu.Halted {
			if memDigest(cpu.Mem) != memDigest(twin.Mem) {
				t.Fatalf("memory differs at the end, count %d", cpu.Count)
			}
			return cpu, err
		}
	}
}

func firstDiff(got, want []functional.DynRec) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return "length"
}

// TestRunWarmRecordsFilterRunDyn: on every suite program, RunWarm's
// records are RunDyn's filtered by the warming predicate, call for call,
// and the CPU state after each call is RunDyn's at the same count —
// through ring-full stops (rings of 64 to 79 records, calls of up to
// three rings of instructions) and the halt, which ends a call and is
// recorded.
func TestRunWarmRecordsFilterRunDyn(t *testing.T) {
	length := uint64(120_000)
	if testing.Short() {
		length = 30_000
	}
	for i, spec := range program.Suite() {
		t.Run(spec.Name, func(t *testing.T) {
			prog, err := program.Generate(spec, length)
			if err != nil {
				t.Fatal(err)
			}
			for _, bits := range []uint{4, 6} {
				cpu, err := lockstep(t, prog, bits, 64+i, int64(i))
				if err != nil {
					t.Fatal(err)
				}
				if !cpu.Halted || cpu.Count != prog.Length {
					t.Fatalf("ended at count %d halted %v, want the halt at %d", cpu.Count, cpu.Halted, prog.Length)
				}
			}
		})
	}
}

// TestRunWarmRingFullAndHalt pins the two stops by hand: a ring filled
// before max instructions ends the call after the instruction that
// filled it, and a halt inside a call ends it with the Halt recorded.
func TestRunWarmRingFullAndHalt(t *testing.T) {
	// Eight ALU ops in one 64-byte fetch block, a load, eight more ALU
	// ops, a halt.
	code := make([]isa.Inst, 0, 18)
	for range 8 {
		code = append(code, isa.Inst{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1})
	}
	code = append(code, isa.Inst{Op: isa.OpLoad, Dst: 2, Src1: isa.RegZero, Imm: 64})
	for range 8 {
		code = append(code, isa.Inst{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1})
	}
	code = append(code, isa.Inst{Op: isa.OpHalt})
	prog := mkProg(code...)

	// At 6 block bits (8 instructions a block) a ring of 2 fills at the
	// load: PC 0 (the call's first) and 8 (a new block, and a load).
	cpu := functional.New(prog)
	var ring [2]functional.DynRec
	recs, insts, err := cpu.RunWarm(ring[:], 100, 6)
	if err != nil || recs != 2 || insts != 9 || ring[1].PC != 8 || ring[1].Class != isa.ClassLoad {
		t.Fatalf("ring of 2: %d records over %d instructions (%v), last PC %d; want 2 over 9, the load last",
			recs, insts, err, ring[1].PC)
	}
	// The next call records its first instruction (PC 9, in the load's
	// block), the new block at 16 and the halt.
	var ring3 [3]functional.DynRec
	recs, insts, err = cpu.RunWarm(ring3[:], 100, 6)
	if err != nil || recs != 3 || insts != 9 || !cpu.Halted ||
		ring3[0].PC != 9 || ring3[1].PC != 16 || ring3[2].Op != isa.OpHalt {
		t.Fatalf("after the load: %d records over %d instructions (%v), halted %v, records %+v; want PCs 9, 16 and the halt",
			recs, insts, err, cpu.Halted, ring3[:recs])
	}
	if recs, insts, err = cpu.RunWarm(ring[:], 100, 6); recs != 0 || insts != 0 || err != nil {
		t.Fatalf("a halted CPU ran %d instructions, wrote %d records (%v)", insts, recs, err)
	}
	if recs, insts, err = functional.New(prog).RunWarm(nil, 100, 6); recs != 0 || insts != 0 || err != nil {
		t.Fatalf("an empty ring ran %d instructions, wrote %d records (%v)", insts, recs, err)
	}
}

// faultingProgram is uarch's TestForwardBatchWarmsUpToFault program:
// loads, stores, calls, returns and a conditional branch 300 times, then
// a jump outside the code, so the fetch 2,104 instructions in faults.
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
	return &program.Program{Name: "fault", Code: code, Length: 1 << 20}
}

// TestRunWarmFault: a fault inside a call returns the records written
// before it, at RunDyn's CPU state, whichever call it lands in.
func TestRunWarmFault(t *testing.T) {
	for seed := range int64(8) {
		cpu, err := lockstep(t, faultingProgram(), 6, 32+int(seed), seed)
		if err == nil {
			t.Fatal("the program halted instead of faulting")
		}
		if cpu.Count != 2104 {
			t.Fatalf("faulted at %d, want 2104", cpu.Count)
		}
	}
}
