// Package functional implements the architectural (functional) simulator:
// it executes instruction semantics and maintains programmer-visible
// state only — registers, memory, and the PC.
//
// Every other execution mode in this repository is driven by the dynamic
// instruction records (DynInst) this simulator emits: the detailed
// timing model consumes them as an oracle instruction stream, and
// functional warming replays them into caches and branch predictors.
// This mirrors the organization of SimpleScalar's sim-outorder, which
// SMARTSim was built on.
package functional

import (
	"fmt"
	"math"

	"repro/internal/cacheline"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// DynInst is one executed (committed) instruction with its dynamic
// outcomes resolved: effective address for memory ops, direction and
// target for control.
type DynInst struct {
	// Seq is the dynamic instruction number (the first executed
	// instruction has Seq 0).
	Seq uint64
	// PC is the instruction index.
	PC uint64
	// Inst is the static instruction.
	Inst isa.Inst
	// EA is the effective byte address for loads and stores.
	EA uint64
	// Taken reports whether a control instruction redirected the PC.
	Taken bool
	// NextPC is the PC of the next dynamic instruction.
	NextPC uint64
}

// Class returns the instruction's class.
func (d *DynInst) Class() isa.Class { return d.Inst.Op.Class() }

// DynRec is the compact per-instruction record the batch interpreter
// (RunDyn) writes: the dynamic outcomes functional warming consumes —
// fetch PC, effective address, branch direction and target — plus the
// opcode and its pre-decoded class, without the full static instruction
// DynInst carries for the detailed model.
type DynRec struct {
	// PC is the instruction index.
	PC uint64
	// EA is the effective byte address for loads and stores.
	EA uint64
	// NextPC is the PC of the next dynamic instruction.
	NextPC uint64
	// Op is the opcode; Class its pre-decoded class.
	Op    isa.Op
	Class isa.Class
	// Taken reports whether a control instruction redirected the PC.
	Taken bool
}

// CPU is the functional simulator state.
type CPU struct {
	_    cacheline.Pad
	Prog *program.Program
	Mem  *mem.Memory
	Regs [isa.NumRegs]uint64
	PC   uint64
	// Halted is set once OpHalt executes; further Steps return ErrHalted.
	Halted bool
	// Count is the number of instructions executed so far.
	Count uint64

	// code caches Prog.Code so the Step hot loop fetches through one
	// slice header instead of two pointer dereferences per instruction.
	code []isa.Inst
	// dec is the pre-decoded code the RunDyn batch loop executes from:
	// the program's (Prog.Predecoded, shared by every CPU running it),
	// fetched on first use so New and NewAt stay small enough to inline
	// and a CPU built per replayed unit stays off the heap.
	dec []isa.DecInst

	_ cacheline.Pad
}

// ErrHalted is returned by Step after the program has halted.
var ErrHalted = fmt.Errorf("functional: program halted")

// New creates a CPU at the program entry. Its memory starts as the
// program's initial image, sharing the image's pages copy-on-write: the
// CPU's writes stay private and the image stays pristine.
func New(p *program.Program) *CPU {
	return &CPU{Prog: p, Mem: p.Image().NewMemory(), PC: p.Entry, code: p.Code}
}

// reg reads a register, honoring the hardwired zero.
//
//simlint:hotpath
func (c *CPU) reg(r isa.Reg) uint64 {
	if r == isa.RegZero {
		return 0
	}
	return c.Regs[r]
}

// setReg writes a register, discarding writes to the zero register.
//
//simlint:hotpath
func (c *CPU) setReg(r isa.Reg, v uint64) {
	if r != isa.RegZero {
		c.Regs[r] = v
	}
}

// Step executes one instruction. If d is non-nil it is filled with the
// dynamic record. Step returns ErrHalted once the program has finished
// and an error for architectural faults (PC out of range).
//
//simlint:hotpath
func (c *CPU) Step(d *DynInst) error {
	if c.Halted {
		return ErrHalted
	}
	if c.PC >= uint64(len(c.code)) {
		//simlint:coldpath architectural fault; taken at most once per run
		return fmt.Errorf("functional: PC %d outside code (%d insts)", c.PC, len(c.code))
	}
	in := c.code[c.PC]
	pc := c.PC
	next := pc + 1
	var ea uint64
	taken := false

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		c.setReg(in.Dst, c.reg(in.Src1)+c.reg(in.Src2))
	case isa.OpSub:
		c.setReg(in.Dst, c.reg(in.Src1)-c.reg(in.Src2))
	case isa.OpAnd:
		c.setReg(in.Dst, c.reg(in.Src1)&c.reg(in.Src2))
	case isa.OpOr:
		c.setReg(in.Dst, c.reg(in.Src1)|c.reg(in.Src2))
	case isa.OpXor:
		c.setReg(in.Dst, c.reg(in.Src1)^c.reg(in.Src2))
	case isa.OpShl:
		c.setReg(in.Dst, c.reg(in.Src1)<<(c.reg(in.Src2)&63))
	case isa.OpShr:
		c.setReg(in.Dst, c.reg(in.Src1)>>(c.reg(in.Src2)&63))
	case isa.OpSlt:
		c.setReg(in.Dst, boolTo64(int64(c.reg(in.Src1)) < int64(c.reg(in.Src2))))
	case isa.OpAddI:
		c.setReg(in.Dst, c.reg(in.Src1)+uint64(in.Imm))
	case isa.OpAndI:
		c.setReg(in.Dst, c.reg(in.Src1)&uint64(in.Imm))
	case isa.OpOrI:
		c.setReg(in.Dst, c.reg(in.Src1)|uint64(in.Imm))
	case isa.OpXorI:
		c.setReg(in.Dst, c.reg(in.Src1)^uint64(in.Imm))
	case isa.OpShlI:
		c.setReg(in.Dst, c.reg(in.Src1)<<(uint64(in.Imm)&63))
	case isa.OpShrI:
		c.setReg(in.Dst, c.reg(in.Src1)>>(uint64(in.Imm)&63))
	case isa.OpSltI:
		c.setReg(in.Dst, boolTo64(int64(c.reg(in.Src1)) < in.Imm))
	case isa.OpMul:
		c.setReg(in.Dst, c.reg(in.Src1)*c.reg(in.Src2))
	case isa.OpDiv:
		b := int64(c.reg(in.Src2))
		if b == 0 {
			c.setReg(in.Dst, 0)
		} else {
			c.setReg(in.Dst, uint64(int64(c.reg(in.Src1))/b))
		}
	case isa.OpRem:
		b := int64(c.reg(in.Src2))
		if b == 0 {
			c.setReg(in.Dst, 0)
		} else {
			c.setReg(in.Dst, uint64(int64(c.reg(in.Src1))%b))
		}

	case isa.OpFAdd:
		c.setFP(in.Dst, c.fp(in.Src1)+c.fp(in.Src2))
	case isa.OpFSub:
		c.setFP(in.Dst, c.fp(in.Src1)-c.fp(in.Src2))
	case isa.OpFMul:
		c.setFP(in.Dst, c.fp(in.Src1)*c.fp(in.Src2))
	case isa.OpFDiv:
		c.setFP(in.Dst, c.fp(in.Src1)/c.fp(in.Src2))
	case isa.OpFNeg:
		c.setFP(in.Dst, -c.fp(in.Src1))
	case isa.OpCvtIF:
		c.setFP(in.Dst, float64(int64(c.reg(in.Src1))))
	case isa.OpCvtFI:
		c.setReg(in.Dst, uint64(int64(c.fp(in.Src1))))

	case isa.OpLoad, isa.OpFLoad:
		ea = c.reg(in.Src1) + uint64(in.Imm)
		c.setReg(in.Dst, c.Mem.Read64(ea))
	case isa.OpLoad32:
		ea = c.reg(in.Src1) + uint64(in.Imm)
		c.setReg(in.Dst, uint64(c.Mem.Read32(ea)))
	case isa.OpStore, isa.OpFStore:
		ea = c.reg(in.Src1) + uint64(in.Imm)
		c.Mem.Write64(ea, c.reg(in.Src2))
	case isa.OpStore32:
		ea = c.reg(in.Src1) + uint64(in.Imm)
		c.Mem.Write32(ea, uint32(c.reg(in.Src2)))

	case isa.OpBeq:
		taken = c.reg(in.Src1) == c.reg(in.Src2)
	case isa.OpBne:
		taken = c.reg(in.Src1) != c.reg(in.Src2)
	case isa.OpBlt:
		taken = int64(c.reg(in.Src1)) < int64(c.reg(in.Src2))
	case isa.OpBge:
		taken = int64(c.reg(in.Src1)) >= int64(c.reg(in.Src2))
	case isa.OpJmp:
		taken = true
		next = uint64(in.Target)
	case isa.OpJr:
		taken = true
		next = c.reg(in.Src1)
	case isa.OpCall:
		taken = true
		c.setReg(isa.RegLR, pc+1)
		next = uint64(in.Target)
	case isa.OpRet:
		taken = true
		next = c.reg(isa.RegLR)
	case isa.OpHalt:
		c.Halted = true
	default:
		//simlint:coldpath architectural fault; taken at most once per run
		return fmt.Errorf("functional: invalid opcode %v at PC %d", in.Op, pc)
	}

	if in.Op.Class() == isa.ClassBranch && taken {
		next = uint64(in.Target)
	}

	c.PC = next
	seq := c.Count
	c.Count++

	if d != nil {
		d.Seq = seq
		d.PC = pc
		d.Inst = in
		d.EA = ea
		d.Taken = taken
		d.NextPC = next
	}
	return nil
}

// rmask folds a register index into the register file's bounds, eliding
// the bounds check on every operand access in the batch loop.
// Program.Validate guarantees operands are in range, so the mask never
// changes a valid program's semantics.
const rmask = isa.NumRegs - 1

// RunDyn is the batch interpreter: it executes up to max instructions
// with the PC, the instruction count, and the register file pointer
// held in locals, fetching pre-decoded instructions (class, operand
// indices, and widened immediate resolved once per static instruction).
// When ring is non-empty, at most len(ring) instructions execute and
// ring[i] receives the i-th one's dynamic record — the batch analogue
// of Step's DynInst out-parameter that Warmer.ForwardBatch amortizes
// its per-instruction warming dispatch over.
//
// RunDyn returns the number of instructions executed: max unless the
// program halted (the count then includes the Halt itself) or faulted.
// A CPU that has already halted executes nothing and returns (0, nil).
//
//simlint:hotpath
func (c *CPU) RunDyn(ring []DynRec, max uint64) (uint64, error) {
	if c.Halted {
		return 0, nil
	}
	if c.dec == nil {
		//simlint:coldpath once per CPU: the program's memoized predecode
		c.dec = c.Prog.Predecoded()
	}
	if len(ring) > 0 && uint64(len(ring)) < max {
		max = uint64(len(ring))
	}
	code := c.dec
	regs := &c.Regs
	regs[isa.RegZero] = 0 // invariant; lets operand reads skip the zero check
	pc := c.PC
	count := c.Count
	var n uint64
	for n < max {
		if pc >= uint64(len(code)) {
			c.PC = pc
			c.Count = count
			//simlint:coldpath architectural fault; taken at most once per run
			return n, fmt.Errorf("functional: PC %d outside code (%d insts)", pc, len(code))
		}
		in := &code[pc]
		next := pc + 1
		var ea uint64
		taken := false

		switch in.Op {
		case isa.OpNop:
		case isa.OpAdd:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] + regs[in.Src2&rmask]
		case isa.OpSub:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] - regs[in.Src2&rmask]
		case isa.OpAnd:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] & regs[in.Src2&rmask]
		case isa.OpOr:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] | regs[in.Src2&rmask]
		case isa.OpXor:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] ^ regs[in.Src2&rmask]
		case isa.OpShl:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] << (regs[in.Src2&rmask] & 63)
		case isa.OpShr:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] >> (regs[in.Src2&rmask] & 63)
		case isa.OpSlt:
			regs[in.Dst&rmask] = boolTo64(int64(regs[in.Src1&rmask]) < int64(regs[in.Src2&rmask]))
		case isa.OpAddI:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] + in.Imm
		case isa.OpAndI:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] & in.Imm
		case isa.OpOrI:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] | in.Imm
		case isa.OpXorI:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] ^ in.Imm
		case isa.OpShlI:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] << (in.Imm & 63)
		case isa.OpShrI:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] >> (in.Imm & 63)
		case isa.OpSltI:
			regs[in.Dst&rmask] = boolTo64(int64(regs[in.Src1&rmask]) < int64(in.Imm))
		case isa.OpMul:
			regs[in.Dst&rmask] = regs[in.Src1&rmask] * regs[in.Src2&rmask]
		case isa.OpDiv:
			b := int64(regs[in.Src2&rmask])
			if b == 0 {
				regs[in.Dst&rmask] = 0
			} else {
				regs[in.Dst&rmask] = uint64(int64(regs[in.Src1&rmask]) / b)
			}
		case isa.OpRem:
			b := int64(regs[in.Src2&rmask])
			if b == 0 {
				regs[in.Dst&rmask] = 0
			} else {
				regs[in.Dst&rmask] = uint64(int64(regs[in.Src1&rmask]) % b)
			}

		case isa.OpFAdd:
			regs[in.Dst&rmask] = math.Float64bits(math.Float64frombits(regs[in.Src1&rmask]) + math.Float64frombits(regs[in.Src2&rmask]))
		case isa.OpFSub:
			regs[in.Dst&rmask] = math.Float64bits(math.Float64frombits(regs[in.Src1&rmask]) - math.Float64frombits(regs[in.Src2&rmask]))
		case isa.OpFMul:
			regs[in.Dst&rmask] = math.Float64bits(math.Float64frombits(regs[in.Src1&rmask]) * math.Float64frombits(regs[in.Src2&rmask]))
		case isa.OpFDiv:
			regs[in.Dst&rmask] = math.Float64bits(math.Float64frombits(regs[in.Src1&rmask]) / math.Float64frombits(regs[in.Src2&rmask]))
		case isa.OpFNeg:
			regs[in.Dst&rmask] = math.Float64bits(-math.Float64frombits(regs[in.Src1&rmask]))
		case isa.OpCvtIF:
			regs[in.Dst&rmask] = math.Float64bits(float64(int64(regs[in.Src1&rmask])))
		case isa.OpCvtFI:
			regs[in.Dst&rmask] = uint64(int64(math.Float64frombits(regs[in.Src1&rmask])))

		case isa.OpLoad, isa.OpFLoad:
			ea = regs[in.Src1&rmask] + in.Imm
			regs[in.Dst&rmask] = c.Mem.Read64(ea)
		case isa.OpLoad32:
			ea = regs[in.Src1&rmask] + in.Imm
			regs[in.Dst&rmask] = uint64(c.Mem.Read32(ea))
		case isa.OpStore, isa.OpFStore:
			ea = regs[in.Src1&rmask] + in.Imm
			c.Mem.Write64(ea, regs[in.Src2&rmask])
		case isa.OpStore32:
			ea = regs[in.Src1&rmask] + in.Imm
			c.Mem.Write32(ea, uint32(regs[in.Src2&rmask]))

		case isa.OpBeq:
			if regs[in.Src1&rmask] == regs[in.Src2&rmask] {
				taken = true
				next = in.Target
			}
		case isa.OpBne:
			if regs[in.Src1&rmask] != regs[in.Src2&rmask] {
				taken = true
				next = in.Target
			}
		case isa.OpBlt:
			if int64(regs[in.Src1&rmask]) < int64(regs[in.Src2&rmask]) {
				taken = true
				next = in.Target
			}
		case isa.OpBge:
			if int64(regs[in.Src1&rmask]) >= int64(regs[in.Src2&rmask]) {
				taken = true
				next = in.Target
			}
		case isa.OpJmp:
			taken = true
			next = in.Target
		case isa.OpJr:
			taken = true
			next = regs[in.Src1&rmask]
		case isa.OpCall:
			taken = true
			regs[isa.RegLR] = pc + 1
			next = in.Target
		case isa.OpRet:
			taken = true
			next = regs[isa.RegLR]
		case isa.OpHalt:
			c.Halted = true
		default:
			c.PC = pc
			c.Count = count
			//simlint:coldpath architectural fault; taken at most once per run
			return n, fmt.Errorf("functional: invalid opcode %v at PC %d", in.Op, pc)
		}

		// Restore the hardwired zero clobbered by a Dst==RegZero write;
		// one unconditional store replaces a per-write branch.
		regs[isa.RegZero] = 0

		if len(ring) > 0 {
			r := &ring[n]
			r.PC = pc
			r.EA = ea
			r.NextPC = next
			r.Op = in.Op
			r.Class = in.Class
			r.Taken = taken
		}
		pc = next
		count++
		n++
		if c.Halted {
			break
		}
	}
	c.PC = pc
	c.Count = count
	return n, nil
}

// Run executes up to n instructions, returning the number executed. It
// stops early when the program halts.
func (c *CPU) Run(n uint64) (uint64, error) {
	return c.RunDyn(nil, n)
}

// RunToCompletion executes until the program halts and returns the total
// dynamic instruction count (including the halt).
func (c *CPU) RunToCompletion() (uint64, error) {
	for !c.Halted {
		if _, err := c.RunDyn(nil, 1<<30); err != nil {
			return c.Count, err
		}
	}
	return c.Count, nil
}

//simlint:hotpath
func (c *CPU) fp(r isa.Reg) float64 { return math.Float64frombits(c.Regs[r]) }

//simlint:hotpath
func (c *CPU) setFP(r isa.Reg, v float64) {
	if r != isa.RegZero {
		c.Regs[r] = math.Float64bits(v)
	}
}

//simlint:hotpath
func boolTo64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
