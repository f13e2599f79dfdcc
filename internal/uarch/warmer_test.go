package uarch_test

import (
	"reflect"
	"testing"

	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/uarch"
)

// faultingProgram loops over loads, stores, calls, returns and a
// conditional branch 300 times, then jumps outside its code: the fetch
// after the jr faults, 2,104 instructions in — in the middle of a
// ForwardBatch batch.
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

// TestForwardBatchWarmsUpToFault: when the interpreter faults partway
// through a batch, the records it executed before the fault are still
// warmed, so the warm state matches warming one instruction at a time up
// to the same cpu.Count — never behind it.
func TestForwardBatchWarmsUpToFault(t *testing.T) {
	prog := faultingProgram()
	cfg := uarch.Config8Way()
	run := func(step uint64) (*functional.CPU, *uarch.Machine, *uarch.WarmSnapshot) {
		m := uarch.NewMachine(cfg)
		w := uarch.NewWarmer(m, cfg)
		cpu := functional.New(prog)
		for {
			if err := w.ForwardBatch(cpu, step); err != nil {
				break
			}
			if cpu.Halted {
				t.Fatal("the program halted instead of faulting")
			}
		}
		return cpu, m, w.Snapshot(nil)
	}
	cpu, m, got := run(1 << 20)
	refCPU, ref, want := run(1)
	if cpu.Count != refCPU.Count || cpu.Count != 2104 {
		t.Fatalf("faulted at %d batched, %d stepped; want 2104", cpu.Count, refCPU.Count)
	}
	if !reflect.DeepEqual(got.Hier, want.Hier) || !reflect.DeepEqual(got.Pred, want.Pred) {
		t.Fatal("warm state after a mid-batch fault differs from warming one instruction at a time")
	}
	if m.Hier.DL1.Stats != ref.Hier.DL1.Stats || m.Hier.IL1.Stats != ref.Hier.IL1.Stats || m.Pred.Stats != ref.Pred.Stats {
		t.Fatalf("warm statistics differ: DL1 %+v vs %+v, predictor %+v vs %+v",
			m.Hier.DL1.Stats, ref.Hier.DL1.Stats, m.Pred.Stats, ref.Pred.Stats)
	}
}
