// Package isa defines the synthetic 64-bit RISC instruction set used by
// every simulator in this repository.
//
// The ISA is deliberately small — large enough to express the memory,
// compute, and control behaviour of the synthetic SPEC2K-like workload
// suite (see internal/program), small enough that the functional and
// detailed simulators share one unambiguous semantics.
//
// Machine model:
//
//   - 32 integer registers R0..R31. R0 is hardwired to zero; writes to it
//     are discarded. By convention R30 is a stack/frame pointer and R31 is
//     the link register written by Call and read by Ret.
//   - 32 floating-point registers F0..F31, stored as IEEE-754 float64 bit
//     patterns in the shared 64-entry register file.
//   - A flat little-endian byte-addressed memory (see internal/mem).
//   - The program counter indexes instructions (PC increments by exactly 1
//     for sequential flow). For the purposes of instruction-cache and
//     I-TLB modelling an instruction occupies InstBytes bytes at byte
//     address PC*InstBytes.
package isa

import "fmt"

// Reg identifies one of the 64 architectural registers. Values 0..31 are
// the integer registers; values 32..63 are the floating-point registers.
type Reg uint8

// Register file layout.
const (
	NumIntRegs = 32
	NumFPRegs  = 32
	NumRegs    = NumIntRegs + NumFPRegs

	// RegZero is the hardwired zero register.
	RegZero Reg = 0
	// RegSP is the conventional stack pointer (software convention only).
	RegSP Reg = 30
	// RegLR is the link register written by Call and consumed by Ret.
	RegLR Reg = 31
	// FP returns the i'th floating point register via FP(i).
	fpBase Reg = NumIntRegs
)

// FP returns the register name of floating-point register i (0..31).
func FP(i int) Reg { return fpBase + Reg(i) }

// IsFP reports whether r names a floating-point register.
func (r Reg) IsFP() bool { return r >= fpBase }

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r.IsFP() {
		return fmt.Sprintf("f%d", int(r-fpBase))
	}
	return fmt.Sprintf("r%d", int(r))
}

// InstBytes is the architectural size of one instruction in memory, used
// to derive byte addresses for instruction fetch (I-cache, I-TLB).
const InstBytes = 8

// Op enumerates the instruction opcodes.
type Op uint8

// Opcodes. The comment gives the semantics using d = Dst, a = Src1,
// b = Src2, imm = Imm, tgt = Target.
const (
	OpNop Op = iota // no operation

	// Integer ALU, register-register.
	OpAdd // d = a + b
	OpSub // d = a - b
	OpAnd // d = a & b
	OpOr  // d = a | b
	OpXor // d = a ^ b
	OpShl // d = a << (b & 63)
	OpShr // d = a >> (b & 63) (logical)
	OpSlt // d = (int64(a) < int64(b)) ? 1 : 0

	// Integer ALU, register-immediate.
	OpAddI // d = a + imm
	OpAndI // d = a & imm
	OpOrI  // d = a | imm
	OpXorI // d = a ^ imm
	OpShlI // d = a << (imm & 63)
	OpShrI // d = a >> (imm & 63) (logical)
	OpSltI // d = (int64(a) < imm) ? 1 : 0

	// Integer multiply / divide.
	OpMul // d = a * b
	OpDiv // d = int64(a) / int64(b); b==0 yields 0
	OpRem // d = int64(a) % int64(b); b==0 yields 0

	// Floating point (operands are FP registers holding float64 bits).
	OpFAdd  // d = a + b
	OpFSub  // d = a - b
	OpFMul  // d = a * b
	OpFDiv  // d = a / b; b==0 yields +Inf per IEEE
	OpFNeg  // d = -a
	OpCvtIF // d(fp) = float64(int64(a))
	OpCvtFI // d(int) = int64(float64(a))

	// Memory. Effective address EA = a + imm.
	OpLoad    // d = mem64[EA]
	OpLoad32  // d = zext(mem32[EA])
	OpStore   // mem64[EA] = b
	OpStore32 // mem32[EA] = uint32(b)
	OpFLoad   // d(fp) = mem64[EA] (raw bits)
	OpFStore  // mem64[EA] = b(fp raw bits)

	// Control. Targets are absolute instruction indices.
	OpBeq  // if a == b: PC = tgt
	OpBne  // if a != b: PC = tgt
	OpBlt  // if int64(a) < int64(b): PC = tgt
	OpBge  // if int64(a) >= int64(b): PC = tgt
	OpJmp  // PC = tgt
	OpJr   // PC = a (indirect jump)
	OpCall // LR = PC + 1; PC = tgt
	OpRet  // PC = LR

	// OpHalt terminates the program.
	OpHalt

	numOps = int(OpHalt) + 1
)

// Class groups opcodes by the functional unit and pipeline treatment they
// receive in the detailed model, and by the warming action they require.
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassIntALU
	ClassIntMul
	ClassIntDiv
	ClassFPALU
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional direct jumps and calls
	ClassRet    // returns and indirect jumps
	ClassHalt

	NumClasses = int(ClassHalt) + 1
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "ialu"
	case ClassIntMul:
		return "imul"
	case ClassIntDiv:
		return "idiv"
	case ClassFPALU:
		return "falu"
	case ClassFPMul:
		return "fmul"
	case ClassFPDiv:
		return "fdiv"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	case ClassRet:
		return "ret"
	case ClassHalt:
		return "halt"
	}
	return "unknown"
}

var opClass = [numOps]Class{
	OpNop: ClassNop,

	OpAdd: ClassIntALU, OpSub: ClassIntALU, OpAnd: ClassIntALU,
	OpOr: ClassIntALU, OpXor: ClassIntALU, OpShl: ClassIntALU,
	OpShr: ClassIntALU, OpSlt: ClassIntALU,
	OpAddI: ClassIntALU, OpAndI: ClassIntALU, OpOrI: ClassIntALU,
	OpXorI: ClassIntALU, OpShlI: ClassIntALU, OpShrI: ClassIntALU,
	OpSltI: ClassIntALU,

	OpMul: ClassIntMul, OpDiv: ClassIntDiv, OpRem: ClassIntDiv,

	OpFAdd: ClassFPALU, OpFSub: ClassFPALU, OpFNeg: ClassFPALU,
	OpCvtIF: ClassFPALU, OpCvtFI: ClassFPALU,
	OpFMul: ClassFPMul, OpFDiv: ClassFPDiv,

	OpLoad: ClassLoad, OpLoad32: ClassLoad, OpFLoad: ClassLoad,
	OpStore: ClassStore, OpStore32: ClassStore, OpFStore: ClassStore,

	OpBeq: ClassBranch, OpBne: ClassBranch, OpBlt: ClassBranch,
	OpBge: ClassBranch,
	OpJmp: ClassJump, OpCall: ClassJump,
	OpJr: ClassRet, OpRet: ClassRet,

	OpHalt: ClassHalt,
}

var opNames = [numOps]string{
	OpNop: "nop",
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpSlt: "slt",
	OpAddI: "addi", OpAndI: "andi", OpOrI: "ori", OpXorI: "xori",
	OpShlI: "shli", OpShrI: "shri", OpSltI: "slti",
	OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFNeg: "fneg", OpCvtIF: "cvtif", OpCvtFI: "cvtfi",
	OpLoad: "ld", OpLoad32: "ld32", OpStore: "st", OpStore32: "st32",
	OpFLoad: "fld", OpFStore: "fst",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpJmp: "jmp", OpJr: "jr", OpCall: "call", OpRet: "ret",
	OpHalt: "halt",
}

// Class returns the instruction class of op.
//
//simlint:hotpath
func (o Op) Class() Class {
	if int(o) >= numOps {
		return ClassNop
	}
	return opClass[o]
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return int(o) < numOps }

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) >= numOps {
		return fmt.Sprintf("op(%d)", uint8(o))
	}
	return opNames[o]
}

// IsMem reports whether o is a load or store.
func (o Op) IsMem() bool {
	c := o.Class()
	return c == ClassLoad || c == ClassStore
}

// IsControl reports whether o can change the PC non-sequentially.
//
//simlint:hotpath
func (o Op) IsControl() bool {
	switch o.Class() {
	case ClassBranch, ClassJump, ClassRet:
		return true
	}
	return false
}

// Inst is one static instruction.
//
// Not every field is meaningful for every opcode; unused fields must be
// zero (Encode/Decode round-trips rely on it and the assembler in
// internal/program guarantees it).
type Inst struct {
	Op     Op
	Dst    Reg    // destination register (loads, ALU, call writes LR implicitly)
	Src1   Reg    // first source (base register for memory ops)
	Src2   Reg    // second source (store data register)
	Imm    int64  // immediate / memory offset
	Target uint32 // absolute instruction index for direct control flow
}

// DecInst is the pre-decoded dense form of one static instruction, the
// representation the functional interpreter's batch loop executes from:
// the class resolved and the immediate and target widened once per
// static instruction instead of once per dynamic one. It is derived
// state only — Inst remains the canonical encoding.
type DecInst struct {
	// Imm is the immediate, widened once (two's complement preserved).
	Imm uint64
	// Target is the absolute instruction index for direct control flow.
	Target uint64
	// Op is the opcode; Class caches Op.Class().
	Op    Op
	Class Class
	// Dst, Src1, Src2 are the operand registers, as on Inst.
	Dst, Src1, Src2 Reg
}

// Predecode resolves code into its dense pre-decoded form. One pass at
// interpreter construction replaces the per-dynamic-instruction class
// lookups and immediate widenings of instruction-at-a-time execution.
func Predecode(code []Inst) []DecInst {
	dec := make([]DecInst, len(code))
	for i, in := range code {
		dec[i] = DecInst{
			Imm:    uint64(in.Imm),
			Target: uint64(in.Target),
			Op:     in.Op,
			Class:  in.Op.Class(),
			Dst:    in.Dst,
			Src1:   in.Src1,
			Src2:   in.Src2,
		}
	}
	return dec
}

// String renders the instruction in a readable assembly-like form.
func (i Inst) String() string {
	switch i.Op.Class() {
	case ClassNop, ClassHalt:
		return i.Op.String()
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Dst, i.Imm, i.Src1)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Src2, i.Imm, i.Src1)
	case ClassBranch:
		return fmt.Sprintf("%s %s, %s, @%d", i.Op, i.Src1, i.Src2, i.Target)
	case ClassJump:
		return fmt.Sprintf("%s @%d", i.Op, i.Target)
	case ClassRet:
		if i.Op == OpJr {
			return fmt.Sprintf("jr %s", i.Src1)
		}
		return "ret"
	default:
		if i.hasImm() {
			return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Dst, i.Src1, i.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Dst, i.Src1, i.Src2)
	}
}

func (i Inst) hasImm() bool {
	switch i.Op {
	case OpAddI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpSltI:
		return true
	}
	return i.Op.IsMem()
}

// Reads returns the architectural source registers read by the
// instruction. Registers that are not read are returned as RegZero, which
// the pipeline treats as always-ready.
//
//simlint:hotpath
func (i Inst) Reads() (s1, s2 Reg) {
	switch i.Op {
	case OpNop, OpHalt, OpJmp, OpCall:
		return RegZero, RegZero
	case OpRet:
		return RegLR, RegZero
	case OpJr:
		return i.Src1, RegZero
	case OpLoad, OpLoad32, OpFLoad:
		return i.Src1, RegZero
	case OpStore, OpStore32, OpFStore:
		return i.Src1, i.Src2
	case OpAddI, OpAndI, OpOrI, OpXorI, OpShlI, OpShrI, OpSltI,
		OpFNeg, OpCvtIF, OpCvtFI:
		return i.Src1, RegZero
	default:
		return i.Src1, i.Src2
	}
}

// Writes returns the architectural destination register, or RegZero when
// the instruction writes no register. Call writes RegLR.
//
//simlint:hotpath
func (i Inst) Writes() Reg {
	switch i.Op.Class() {
	case ClassStore, ClassBranch, ClassRet, ClassNop, ClassHalt:
		return RegZero
	case ClassJump:
		if i.Op == OpCall {
			return RegLR
		}
		return RegZero
	}
	return i.Dst
}
